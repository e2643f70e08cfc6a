// Package dram models a GPU DRAM channel as a bandwidth-limited queue with
// a fixed pipeline latency — the abstraction behind the paper's Fig. 18
// micro-benchmark (turnaround latency vs offered load) and the timing
// simulator's memory contention.
package dram

import "fmt"

// Channel is a single-server queue: requests are serialized at the channel's
// byte rate and each completes one pipeline latency after its transfer ends.
// Not safe for concurrent use.
type Channel struct {
	bytesPerClk float64
	latencyClk  float64

	busyUntil float64

	readBytes  float64
	writeBytes float64
	requests   uint64
	totalWait  float64 // accumulated turnaround for averaging
}

// NewChannel builds a channel; rates must be positive.
func NewChannel(bytesPerClk, latencyClk float64) (*Channel, error) {
	if bytesPerClk <= 0 || latencyClk < 0 {
		return nil, fmt.Errorf("dram: invalid channel (%v B/clk, %v clk)", bytesPerClk, latencyClk)
	}
	return &Channel{bytesPerClk: bytesPerClk, latencyClk: latencyClk}, nil
}

// Read enqueues a read of the given bytes at time now (clocks) and returns
// the completion time. Requests are served in arrival order.
func (c *Channel) Read(now, bytes float64) float64 {
	done := c.serve(now, bytes)
	c.readBytes += bytes
	return done
}

// Write enqueues a write; writes share the data bus with reads.
func (c *Channel) Write(now, bytes float64) float64 {
	done := c.serve(now, bytes)
	c.writeBytes += bytes
	return done
}

func (c *Channel) serve(now, bytes float64) float64 {
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + bytes/c.bytesPerClk
	done := c.busyUntil + c.latencyClk
	c.requests++
	c.totalWait += done - now
	return done
}

// Stats summarizes channel activity.
type Stats struct {
	ReadBytes, WriteBytes float64
	Requests              uint64
	MeanTurnaroundClk     float64
}

// Stats returns a snapshot of the counters.
func (c *Channel) Stats() Stats {
	s := Stats{ReadBytes: c.readBytes, WriteBytes: c.writeBytes, Requests: c.requests}
	if c.requests > 0 {
		s.MeanTurnaroundClk = c.totalWait / float64(c.requests)
	}
	return s
}

// Reset clears queue state and counters.
func (c *Channel) Reset() {
	c.busyUntil = 0
	c.readBytes = 0
	c.writeBytes = 0
	c.requests = 0
	c.totalWait = 0
}

// UnloadedLatency returns the turnaround of a lone request of the given
// size: transfer time plus pipeline latency.
func (c *Channel) UnloadedLatency(bytes float64) float64 {
	return bytes/c.bytesPerClk + c.latencyClk
}
