package cluster

import (
	"testing"
	"time"
)

// TestBackoffForNoOverflow pins the overflow fix: the former
// `base << (attempt-1)` overflowed into huge or negative delays once the
// attempt count outgrew the Duration width. backoffFor must stay positive
// and capped (max + 50% jitter) for arbitrarily high attempts.
func TestBackoffForNoOverflow(t *testing.T) {
	base, max := 250*time.Millisecond, 5*time.Second
	ceiling := max + max/2
	for n := 1; n <= 200; n++ {
		for trial := 0; trial < 8; trial++ {
			d := backoffFor(base, max, n)
			if d <= 0 {
				t.Fatalf("attempt %d: non-positive backoff %v", n, d)
			}
			if d > ceiling {
				t.Fatalf("attempt %d: backoff %v above jittered cap %v", n, d, ceiling)
			}
		}
	}
	// Early attempts still grow exponentially: attempt 1 jitters around
	// base, attempt 3 around 4*base.
	for trial := 0; trial < 8; trial++ {
		if d := backoffFor(base, max, 1); d < base/2 || d > base+base/2 {
			t.Fatalf("attempt 1: backoff %v outside [%v, %v]", d, base/2, base+base/2)
		}
		if d := backoffFor(base, max, 3); d < 2*base || d > 6*base {
			t.Fatalf("attempt 3: backoff %v outside [%v, %v]", d, 2*base, 6*base)
		}
	}
	// The exact shift widths where the old code overflowed.
	for _, n := range []int{62, 63, 64, 65, 100} {
		if d := backoffFor(time.Second, 5*time.Second, n); d <= 0 || d > 5*time.Second+5*time.Second/2 {
			t.Fatalf("attempt %d: backoff %v (overflow regression)", n, d)
		}
	}
}
