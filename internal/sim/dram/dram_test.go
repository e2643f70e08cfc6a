package dram

import (
	"math"
	"testing"
	"testing/quick"
)

func newCh(t *testing.T) *Channel {
	t.Helper()
	c, err := NewChannel(272, 500) // ~TITAN Xp: 430 GB/s at 1.58 GHz
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel(0, 500); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewChannel(100, -1); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestUnloadedLatency(t *testing.T) {
	c := newCh(t)
	// A lone 32 B request completes after transfer + pipeline latency.
	done := c.Read(0, 32)
	want := 32.0/272 + 500
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("done = %v, want %v", done, want)
	}
	if math.Abs(c.UnloadedLatency(32)-want) > 1e-9 {
		t.Errorf("UnloadedLatency = %v", c.UnloadedLatency(32))
	}
}

func TestQueueingUnderSaturation(t *testing.T) {
	c := newCh(t)
	// Offer requests far faster than the channel drains: turnaround grows
	// unboundedly (the Fig. 18 hockey stick).
	var last float64
	for i := 0; i < 10000; i++ {
		now := float64(i) * 0.01 // ~3200 B/clk offered vs 272 B/clk capacity
		last = c.Read(now, 32) - now
	}
	if last < 2*c.UnloadedLatency(32) {
		t.Errorf("saturated turnaround = %v clk, expected queue growth", last)
	}
}

func TestNoQueueingUnderLightLoad(t *testing.T) {
	c := newCh(t)
	// Offer 32 B every 10 clocks (3.2 B/clk): no queueing, constant latency.
	for i := 0; i < 100; i++ {
		now := float64(i) * 10
		turn := c.Read(now, 32) - now
		if math.Abs(turn-c.UnloadedLatency(32)) > 1e-9 {
			t.Fatalf("light-load turnaround = %v at request %d", turn, i)
		}
	}
}

func TestStatsAndReset(t *testing.T) {
	c := newCh(t)
	c.Read(0, 64)
	c.Write(1, 32)
	s := c.Stats()
	if s.ReadBytes != 64 || s.WriteBytes != 32 || s.Requests != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MeanTurnaroundClk <= 0 {
		t.Errorf("mean turnaround = %v", s.MeanTurnaroundClk)
	}
	c.Reset()
	if c.Stats().Requests != 0 {
		t.Error("reset incomplete")
	}
	// A reset bus is idle: a lone read completes after the unloaded latency.
	if got, want := c.Read(0, 32), c.UnloadedLatency(32); got != want {
		t.Errorf("read after reset done at %v, want %v", got, want)
	}
}

func TestWritesShareBus(t *testing.T) {
	c := newCh(t)
	c.Write(0, 272000) // 1000 clk of bus time
	done := c.Read(0, 32) - 0
	if done < 1000 {
		t.Errorf("read bypassed a queued write: turnaround %v", done)
	}
}

// TestQuickFIFOMonotone: completion times never decrease for
// non-decreasing arrivals.
func TestQuickFIFOMonotone(t *testing.T) {
	f := func(gaps []uint8) bool {
		c, _ := NewChannel(100, 50)
		now, prevDone := 0.0, 0.0
		for _, g := range gaps {
			now += float64(g)
			done := c.Read(now, 32)
			if done < prevDone || done < now {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
