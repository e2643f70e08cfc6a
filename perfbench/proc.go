package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process of the system under test, started in its own
// process group so that killing the group also reaches anything it forks.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port for servers; "" for the sweep child
	log  *os.File
	done chan struct{} // closed once Wait returned
	err  error
}

// procs tracks every process group this run started, so each exit path,
// an interrupt included, kills them all.
var procs struct {
	mu  sync.Mutex
	all map[*proc]bool
}

func track(p *proc, on bool) {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	if procs.all == nil {
		procs.all = make(map[*proc]bool)
	}
	if on {
		procs.all[p] = true
	} else {
		delete(procs.all, p)
	}
}

// killAll kills every tracked process group and waits for each leader.
// It reports whether any group still had members afterwards.
func killAll() (stray bool) {
	procs.mu.Lock()
	ps := make([]*proc, 0, len(procs.all))
	for p := range procs.all {
		ps = append(ps, p)
	}
	procs.mu.Unlock()
	for _, p := range ps {
		if p.stop() {
			stray = true
		}
	}
	return stray
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches bin with args in a new process group. Output not claimed
// by wire (which may attach pipes) goes to a log file under dir.
func start(name, dir, bin string, wire func(*exec.Cmd) error, args ...string) (*proc, error) {
	f, err := createLog(dir, name)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// Pdeathsig takes the process down with the benchmark even when the
	// benchmark itself is killed and cannot run its own cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if wire != nil {
		if err := wire(cmd); err != nil {
			f.Close()
			return nil, err
		}
	}
	if cmd.Stdout == nil {
		cmd.Stdout = f
	}
	cmd.Stderr = f
	p := &proc{name: name, cmd: cmd, log: f, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	track(p, true)
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func createLog(dir, name string) (*os.File, error) {
	return os.Create(fmt.Sprintf("%s/%s.log", dir, name))
}

// startServer launches delta-server on a free loopback port with extra
// flags and waits until it answers /healthz. A port taken between
// freePort and the server's bind shows up as an early exit; the launch is
// then retried on another port.
func startServer(ctx context.Context, c *http.Client, name, dir, bin string, flags ...string) (*proc, error) {
	var last error
	for try := 0; try < 3; try++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		p, err := start(name, dir, bin, nil, append([]string{"-addr", addr}, flags...)...)
		if err != nil {
			return nil, err
		}
		p.addr = addr
		if last = waitReady(ctx, c, p); last == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, last
}

// waitReady polls GET /healthz until it answers 200.
func waitReady(ctx context.Context, c *http.Client, p *proc) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited: %v", p.name, p.err)
		default:
		}
		if status, _, err := get(ctx, c, "http://"+p.addr+"/healthz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 20s", p.name)
}

// stop kills the process group, waits for the leader and reports whether
// any member of the group survived (a stray process).
func (p *proc) stop() (stray bool) {
	pgid := p.cmd.Process.Pid
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH: already gone
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		stray = true
	}
	// The group is empty once kill(-pgid, 0) fails with ESRCH.
	deadline := time.Now().Add(time.Second)
	for !errors.Is(syscall.Kill(-pgid, 0), syscall.ESRCH) {
		if time.Now().After(deadline) {
			stray = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.log.Close()
	track(p, false)
	return stray
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: total
// ticks and the ticks the hypervisor stole from this machine.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
