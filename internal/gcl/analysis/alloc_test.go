package analysis

import (
	"testing"

	"repro/internal/gcl"
	"repro/internal/ring"
)

// TestExactAllocsIndependentOfStates gates the exact tier's allocations:
// the sweep's buffers are sized up front, so Dijkstra-3 at N=7 (6561
// states) allocates within a small constant of N=5 (729 states).
func TestExactAllocsIndependentOfStates(t *testing.T) {
	allocs := func(n int) float64 {
		prog, err := gcl.Parse(ring.Dijkstra3GCL(n))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := runExact(prog, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	a5, a7 := allocs(5), allocs(7)
	t.Logf("runExact allocations: N=5 %.0f, N=7 %.0f", a5, a7)
	if a7-a5 > 64 || a7 > 400 {
		t.Fatalf("runExact allocations grow with the state space: N=5 %.0f, N=7 %.0f", a5, a7)
	}
}
