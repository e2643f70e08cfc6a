// Shared retry backoff: exponential with a shift-overflow guard and ±50%
// jitter. Used by both the coordinator's runners after consecutive failed
// attempts and the SSE client's reconnects — the former's uncapped
// `base << (attempt-1)` used to overflow into huge or negative delays
// once attempt counts grew past the width of a Duration.
package cluster

import (
	"context"
	"math/rand" //lint:ignore determinism retry jitter only; never touches replayed counters
	"time"
)

// backoffFor returns the jittered delay before retry n (1-based): base
// doubled n-1 times, clamped to max before the shift can overflow, then
// jittered to [d/2, 3d/2). Safe for arbitrarily large n.
func backoffFor(base, max time.Duration, n int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	d := max
	// base << shift overflows (or exceeds max) once shift reaches
	// log2(max/base); comparing base against max>>shift asks the same
	// question without ever shifting left.
	if shift := uint(n - 1); n >= 1 && shift < 63 && base <= max>>shift {
		d = base << shift
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if d < 1 {
		d = 1
	}
	return d
}

// sleepCtx waits d unless ctx ends first, and reports whether d elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
