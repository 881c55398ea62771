package gcl

import (
	"strings"
	"testing"

	"repro/internal/system"
)

// FuzzParse asserts the lexer/parser/checker pipeline never panics and
// that accepted programs survive a print→reparse round trip.
func FuzzParse(f *testing.F) {
	f.Add("var x : 0..2;\naction a: x < 2 -> x := x + 1;")
	f.Add(dijkstra3Src)
	f.Add("var b : bool;\ninit !b;\naction t: b || !b -> b := false;")
	f.Add("var x : -5..5;\naction n: -x == 5 -> x := 0;")
	f.Add("var x : 0..1; action broken")
	f.Add("/* unterminated")
	f.Add("🤖")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := Check(prog); err != nil {
			return
		}
		printed := prog.String()
		prog2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n%s", err, printed)
		}
		if got := prog2.String(); got != printed {
			t.Fatalf("print not idempotent:\n%s\nvs\n%s", printed, got)
		}
	})
}

// FuzzCompile is a differential fuzzer: for small-domain programs,
// CompileProgram must produce the same automaton as the tree-walking
// oracle, or fail with byte-identical error text.
func FuzzCompile(f *testing.F) {
	f.Add("var x : 0..2;\naction a: true -> x := (x + 1) % 3;")
	f.Add("var x : 0..2;\naction a: true -> x := x + 1;") // domain overflow
	f.Add("var x : 0..2;\naction a: 1 / x == 1 -> x := 0;")
	f.Add("var x : -1..1;\nvar b : bool;\ninit x % (x + 1) == 0;\naction a: b -> x := -x; b := x > 0;")
	f.Fuzz(func(t *testing.T, src string) {
		// Guard against fuzz inputs that declare astronomically large
		// domains: compilation cost is proportional to the state space.
		if strings.Contains(src, "..") && len(src) < 4096 {
			prog, err := Parse(src)
			if err != nil {
				return
			}
			space := 1
			for _, v := range prog.Vars {
				space *= v.Card()
				if space > 1<<16 || space <= 0 {
					return
				}
			}
			prog2, _ := Parse(src)
			got, gotErr := CompileProgram("fuzz", prog)
			want, wantErr := oracleCompile("fuzz", prog2)
			if (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("error %v, oracle %v", gotErr, wantErr)
			}
			if gotErr == nil && !system.Equal(got.System, want.System) {
				t.Fatalf("automaton %s differs from oracle %s", got.System, want.System)
			}
		}
	})
}
