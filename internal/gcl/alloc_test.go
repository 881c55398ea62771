package gcl

import (
	"testing"

	"repro/internal/ring"
)

// TestCompileAllocsIndependentOfStates gates CompileProgram's
// allocations: the lowered program and the flat successor arrays are
// allocated once per compile, so Dijkstra-3 at N=7 (6561 states)
// allocates within a small constant of N=5 (729 states). The constant
// covers lowering the two extra processes' guards and assignments.
func TestCompileAllocsIndependentOfStates(t *testing.T) {
	allocs := func(n int) float64 {
		prog, err := Parse(ring.Dijkstra3GCL(n))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := CompileProgram("program", prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	a5, a7 := allocs(5), allocs(7)
	t.Logf("CompileProgram allocations: N=5 %.0f, N=7 %.0f", a5, a7)
	if a7-a5 > 64 || a7 > 400 {
		t.Fatalf("CompileProgram allocations grow with the state space: N=5 %.0f, N=7 %.0f", a5, a7)
	}
}
