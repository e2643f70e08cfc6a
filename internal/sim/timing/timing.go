// Package timing is an event-driven execution-time simulator for the
// blocked im2col GEMM: per-SM compute pipes, double-buffered main loops, and
// queueing contention on the shared L2 and DRAM channels.
//
// It stands in for the paper's measured execution cycles (Fig. 13/14/19).
// Unlike the closed-form model of package perf it resolves contention
// dynamically: every CTA's global loads are serialized through shared
// bandwidth queues in issue order, latency exposure emerges from buffer
// readiness rather than a case analysis, and SMs desynchronize freely.
package timing

import (
	"fmt"
	"math"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/sim/dram"
	"delta/internal/traffic"
)

// Result is the simulated execution time of one layer.
type Result struct {
	Layer  layers.Conv
	Device string

	Cycles  float64
	Seconds float64

	SimulatedCTAs int

	// MeanDRAMTurnaroundClk exposes the queueing the DRAM channel saw.
	MeanDRAMTurnaroundClk float64
}

// Run simulates the layer described by a traffic estimate on device d.
// Per-main-loop load volumes come from the estimate; the discrete-event
// machinery resolves when those loads complete under contention.
func Run(e traffic.Estimate, d gpu.Device) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if e.Device != d.Name {
		return Result{}, fmt.Errorf("timing: estimate for %q run on %q", e.Device, d.Name)
	}
	g := e.Grid
	tile := g.Tile
	const eb = layers.ElemBytes

	// Shared channels. The L2 "channel" has zero pipeline latency of its
	// own (latency is added per request) so it acts as a bandwidth queue.
	dramCh, err := dram.NewChannel(d.DRAMBytesPerClk(), d.LatDRAMClk)
	if err != nil {
		return Result{}, err
	}
	l2Ch, err := dram.NewChannel(d.L2BytesPerClk(), 0)
	if err != nil {
		return Result{}, err
	}

	// Per-loop stream times local to an SM.
	macPerClk := d.MACPerClkPerSM()
	tCS := float64(tile.BlkM) * float64(tile.BlkN) * float64(tile.BlkK) / macPerClk
	smemStoreBytes := float64(tile.BlkM+tile.BlkN) * float64(tile.BlkK) * eb
	smemLoadBytes := float64(tile.WarpM+tile.WarpN) * float64(tile.BlkK) * eb * float64(tile.Warps())
	tSAS := smemStoreBytes/d.SMEMStoreBPerClk + smemLoadBytes/d.SMEMLoadBPerClk
	inner := math.Max(tCS, tSAS)

	l1Rate := d.L1BytesPerClkPerSM()
	vL1 := e.PerLoopL1Bytes
	vL2 := e.PerLoopL2Bytes
	vDRAM := e.PerLoopDRAMBytes

	prologueBytes := smemStoreBytes
	epiBytes := float64(tile.BlkM) * float64(tile.BlkN) * eb

	active := g.ActiveCTAs(d)
	waveSize := d.NumSM * active
	loops := g.MainLoops()
	numCTA := g.NumCTA()

	// issueGLS models one loop's global loads launched at time t: the L1
	// transfer is SM-local, the L2 and DRAM portions queue on the shared
	// channels. The loads complete when the slowest level delivers.
	issueGLS := func(t float64) float64 {
		l1Done := t + d.LatL1Clk + vL1/l1Rate
		l2Done := l2Ch.Read(t, vL2) + d.LatL2Clk
		dDone := dramCh.Read(t, vDRAM)
		return math.Max(l1Done, math.Max(l2Done, dDone))
	}

	// Slot state: each of the waveSize concurrent CTA slots has a free time
	// and each SM a compute-pipe free time.
	slotFree := make([]float64, waveSize)
	pipeFree := make([]float64, d.NumSM)
	glsReady := make([]float64, waveSize)
	loopDone := make([]float64, waveSize)

	var finish float64
	simulated := 0

	for start := 0; start < numCTA; start += waveSize {
		n := waveSize
		if start+n > numCTA {
			n = numCTA - start
		}
		// Prologue: each CTA's first buffers stream from DRAM, then into
		// SMEM, before loop 0 can run.
		for s := 0; s < n; s++ {
			t0 := slotFree[s]
			dDone := dramCh.Read(t0, prologueBytes)
			glsReady[s] = dDone + d.LatSMEMClk + prologueBytes/d.SMEMStoreBPerClk
			loopDone[s] = glsReady[s]
		}
		// Main loops, double buffered: compute of loop i overlaps the
		// global loads of loop i+1.
		for loop := 0; loop < loops; loop++ {
			for s := 0; s < n; s++ {
				sm := s % d.NumSM
				cs := math.Max(glsReady[s], pipeFree[sm])
				pipeFree[sm] = cs + inner
				loopDone[s] = cs + inner
				if loop+1 < loops {
					glsReady[s] = issueGLS(cs)
				}
			}
		}
		// Epilogue: accumulators stream to DRAM; the slot frees for the
		// next wave's CTA when the write drains.
		for s := 0; s < n; s++ {
			done := dramCh.Write(loopDone[s], epiBytes)
			slotFree[s] = done
			if done > finish {
				finish = done
			}
		}
		simulated += n
	}

	res := Result{
		Layer:                 e.Layer,
		Device:                d.Name,
		Cycles:                finish,
		Seconds:               d.CyclesToSeconds(finish),
		SimulatedCTAs:         simulated,
		MeanDRAMTurnaroundClk: dramCh.Stats().MeanTurnaroundClk,
	}
	return res, nil
}
