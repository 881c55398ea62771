package gcl_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/gcl"
	"repro/internal/ring"
	"repro/internal/system"
)

// The differential tests hold the lowered evaluator to the tree-walking
// oracle it replaced: the same automaton (states, transitions, initial
// states) for every program that compiles, and byte-identical error text
// for every program that does not.

// sameCompile compiles src both ways and reports the first difference.
func sameCompile(name, src string) error {
	p1, err := gcl.Parse(src)
	if err != nil {
		return nil // parse errors never reach either evaluator
	}
	p2, _ := gcl.Parse(src)
	got, gotErr := gcl.CompileProgram(name, p1)
	want, wantErr := gcl.OracleCompile(name, p2)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, oracle %v", gotErr, wantErr)
		}
	case !got.Space.SameShape(want.Space):
		return fmt.Errorf("space %d states, oracle %d", got.Space.Size(), want.Space.Size())
	case !system.Equal(got.System, want.System):
		return fmt.Errorf("automaton %s differs from oracle %s (first extra edges %v, missing %v)",
			got.System, want.System,
			system.DiffTransitions(got.System, want.System, 3),
			system.DiffTransitions(want.System, got.System, 3))
	case got.System.Name() != want.System.Name():
		return fmt.Errorf("name %q, oracle %q", got.System.Name(), want.System.Name())
	}
	return nil
}

func TestCompileMatchesOracleOnExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/gcl/*.gcl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCompile(f, string(src)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestCompileMatchesOracleOnRings(t *testing.T) {
	for n := 3; n <= 5; n++ {
		srcs := map[string]string{
			"dijkstra3":  ring.Dijkstra3GCL(n),
			"aggressive": ring.AggressiveThreeGCL(n),
		}
		for k := 2; k <= n+1; k++ {
			srcs[fmt.Sprintf("kstate-k%d", k)] = ring.KStateGCL(n, k)
		}
		for name, src := range srcs {
			if err := sameCompile(name, src); err != nil {
				t.Errorf("%s n=%d: %v", name, n, err)
			}
		}
	}
}

func TestCompileMatchesOracleOnLoadgenPrograms(t *testing.T) {
	for i := 0; i < 100; i++ {
		if err := sameCompile("program", fleet.LoadgenProgram(i)); err != nil {
			t.Errorf("LoadgenProgram(%d): %v", i, err)
		}
	}
}

// randExpr builds a random expression over x : -2..2, y : 0..3 and
// b : bool, including division and modulo by expressions that can be
// zero, so evaluation errors are part of what is compared.
func randExpr(rng *rand.Rand, wantBool bool, depth int) string {
	if depth <= 0 {
		if wantBool {
			return []string{"b", "true", "false", "!b"}[rng.Intn(4)]
		}
		return []string{"x", "y", "0", "1", "-1", "3"}[rng.Intn(6)]
	}
	sub := func(b bool) string { return randExpr(rng, b, depth-1) }
	if wantBool {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("(%s && %s)", sub(true), sub(true))
		case 1:
			return fmt.Sprintf("(%s || %s)", sub(true), sub(true))
		case 2:
			return fmt.Sprintf("!(%s)", sub(true))
		case 3:
			op := []string{"==", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
			return fmt.Sprintf("(%s %s %s)", sub(false), op, sub(false))
		case 4:
			return fmt.Sprintf("(%s ? %s : %s)", sub(true), sub(true), sub(true))
		default:
			return sub(true)
		}
	}
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", sub(false), sub(false))
	case 1:
		return fmt.Sprintf("(%s - %s)", sub(false), sub(false))
	case 2:
		return fmt.Sprintf("(%s * %s)", sub(false), sub(false))
	case 3:
		return fmt.Sprintf("(%s / %s)", sub(false), sub(false))
	case 4:
		return fmt.Sprintf("(%s %% %s)", sub(false), sub(false))
	case 5:
		return fmt.Sprintf("-(%s)", sub(false))
	case 6:
		return fmt.Sprintf("(%s ? %s : %s)", sub(true), sub(false), sub(false))
	default:
		return sub(false)
	}
}

// randProgram builds a random program whose assignments may leave their
// domains and whose guards and right-hand sides may divide by zero.
func randProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("var x : -2..2;\nvar y : 0..3;\nvar b : bool;\n")
	if rng.Intn(3) > 0 {
		fmt.Fprintf(&b, "init %s;\n", randExpr(rng, true, 2))
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		fmt.Fprintf(&b, "action a%d: %s ->", i, randExpr(rng, true, 2))
		targets := []string{"x", "y", "b"}
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		for _, v := range targets[:1+rng.Intn(3)] {
			fmt.Fprintf(&b, " %s := %s;", v, randExpr(rng, v == "b", 2))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestCompileMatchesOracleOnRandomPrograms(t *testing.T) {
	var ok, failed int
	for trial := 0; trial < 2000; trial++ {
		src := randProgram(rand.New(rand.NewSource(int64(trial))))
		if err := sameCompile("rand", src); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if _, err := gcl.Compile("rand", src); err != nil {
			failed++
		} else {
			ok++
		}
	}
	// Both outcomes must be exercised, or the comparison is one-sided.
	if ok < 200 || failed < 200 {
		t.Fatalf("generator too narrow: %d compiled, %d failed", ok, failed)
	}
}

func TestEvalMatchesOracle(t *testing.T) {
	for trial := 0; trial < 1000; trial++ {
		rng := rand.New(rand.NewSource(int64(10_000 + trial)))
		wantBool := rng.Intn(2) == 0
		src := fmt.Sprintf("var x : -2..2;\nvar y : 0..3;\nvar b : bool;\ninit %s == %s;\n",
			randExpr(rng, wantBool, 4), randExpr(rng, wantBool, 4))
		prog, err := gcl.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if err := gcl.Check(prog); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		for s := 0; s < 5*4*2; s++ {
			env := system.Vals{s % 5, s / 5 % 4, s / 20}
			got, gotErr := gcl.Eval(prog, prog.Init, env)
			want, wantErr := gcl.OracleEval(prog, prog.Init, env)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("trial %d env %v: Eval = %d, %v; oracle %d, %v\n%s",
					trial, env, got, gotErr, want, wantErr, src)
			}
		}
	}
}

// TestCompileMatchesOracleOnExtremeLiterals covers literals where moving
// a range offset across a comparison would overflow.
func TestCompileMatchesOracleOnExtremeLiterals(t *testing.T) {
	for _, src := range []string{
		"var x : -2..2;\ninit x < 9223372036854775807;\naction a: x >= -9223372036854775807 -> x := 0;",
		"var x : 1..3;\ninit x > -9223372036854775807;\naction a: x - 9223372036854775807 < 0 -> x := 1;",
		"var x : -3..-1;\ninit x != 9223372036854775807;\naction a: x + 9223372036854775807 > 0 -> x := -1;",
	} {
		if err := sameCompile("extreme", src); err != nil {
			t.Errorf("%v\n%s", err, src)
		}
		if _, err := gcl.Compile("extreme", src); err != nil {
			t.Errorf("%v\n%s", err, src)
		}
	}
}
