package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"delta"
	"delta/internal/spec"
)

// The sim-l2sweep system under test is a fresh child process running
// sweeps in-process, the way a CLI run does: decode the scenario, build a
// fresh pipeline, RunScenario. The parent drives it over stdin/stdout:
//
//	parent → child  line 1: the scenario document
//	child → parent  {"kind":"warm", ...}: one sweep, its results
//	parent → child  "run <seconds>" or "quit"
//	child → parent  {"kind":"timed", ...}: every sweep of the timed phase
//	parent → child  "quit" (after reading the child's peak RSS)

// sweepOut is one sweep as the child reports it.
type sweepOut struct {
	Ms     float64     `json:"ms"`
	Points []pointJSON `json:"points"`
	Stats  pipeStats   `json:"stats"`
}

// pipeStats is the part of Pipeline.Stats the benchmark reads.
type pipeStats struct {
	Hits, Misses, Entries    uint64
	StreamHits, StreamMisses uint64
}

// childMsg is one line the child writes.
type childMsg struct {
	Kind    string     `json:"kind"`
	Sweeps  []sweepOut `json:"sweeps"`
	AllocMB float64    `json:"alloc_mb"`
}

// childSweep is the child's main.
func childSweep() int {
	in := bufio.NewReader(os.Stdin)
	doc, err := in.ReadBytes('\n')
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: reading scenario:", err)
		return 1
	}
	sc, err := spec.ReadScenario(bytes.NewReader(doc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	ctx := context.Background()
	out := json.NewEncoder(os.Stdout)
	sw, err := sweepOnce(ctx, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	if err := out.Encode(childMsg{Kind: "warm", Sweeps: []sweepOut{sw}}); err != nil {
		return 1
	}
	for {
		line, err := in.ReadString('\n')
		cmd := strings.Fields(line)
		if err != nil || len(cmd) == 0 || cmd[0] == "quit" {
			return 0
		}
		secs, perr := strconv.ParseFloat(cmd[len(cmd)-1], 64)
		if cmd[0] != "run" || perr != nil {
			fmt.Fprintf(os.Stderr, "child: bad command %q\n", line)
			return 1
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		msg := childMsg{Kind: "timed"}
		deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
		for time.Now().Before(deadline) {
			sw, err := sweepOnce(ctx, sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "child:", err)
				return 1
			}
			msg.Sweeps = append(msg.Sweeps, sw)
		}
		runtime.ReadMemStats(&ms1)
		msg.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		if err := out.Encode(msg); err != nil {
			return 1
		}
	}
}

// sweepOnce runs the scenario through a fresh pipeline and renders the
// points in the server's JSON shape, so one checker serves both.
func sweepOnce(ctx context.Context, sc delta.Scenario) (sweepOut, error) {
	t := time.Now()
	p := delta.NewPipeline()
	upds, err := p.RunScenario(ctx, sc)
	ms := msSince(t)
	if err != nil {
		return sweepOut{}, err
	}
	st := p.Stats()
	sw := sweepOut{Ms: ms, Stats: pipeStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries,
		StreamHits: st.StreamHits, StreamMisses: st.StreamMisses}}
	for _, u := range upds {
		pj := pointJSON{Index: u.Point.Index, Workload: u.Point.Workload, Device: u.Point.Device.Name,
			Kind: "sim", Done: u.Done, Total: u.Total}
		if u.Err != nil {
			pj.Error = u.Err.Error()
		}
		for _, r := range u.Sim {
			pj.Sim = append(pj.Sim, simLayerJSON{Name: r.Layer.Name, L1Bytes: r.L1Bytes, L2Bytes: r.L2Bytes,
				DRAMBytes: r.DRAMBytes, DRAMWriteBytes: r.DRAMWriteBytes, L1Requests: r.L1Requests,
				SimulatedCTAs: r.SimulatedCTAs, TotalCTAs: r.TotalCTAs})
		}
		sw.Points = append(sw.Points, pj)
	}
	return sw, nil
}
