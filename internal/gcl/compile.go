package gcl

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/mc"
	"repro/internal/system"
)

// Compiled is a type-checked program together with its state space and
// enumerated automaton.
type Compiled struct {
	Program *Program
	Space   *system.Space
	System  *system.System
}

// Compile parses, checks, and enumerates a GCL source text into an
// automaton named name.
func Compile(name, src string) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("gcl: parsing %s: %w", name, err)
	}
	return CompileProgram(name, prog)
}

// CompileProgram checks and enumerates an already-parsed program.
func CompileProgram(name string, prog *Program) (*Compiled, error) {
	return CompileProgramContext(context.Background(), name, prog)
}

// CompileProgramContext is CompileProgram abandoned when ctx is done: the
// enumeration polls ctx at the model checker's gas poll interval and
// returns ctx's error. It charges no step budget — the checks that follow
// meter their own — so a cancelled request stops enumerating without
// changing the gas any completed check spends.
func CompileProgramContext(ctx context.Context, name string, prog *Program) (*Compiled, error) {
	l, err := Lower(prog)
	if err != nil {
		return nil, fmt.Errorf("gcl: checking %s: %w", name, err)
	}
	sp := l.Space
	n := sp.Size()
	var gas *mc.Gas
	if ctx.Done() != nil {
		gas = mc.NewGas(ctx, -1)
	}
	// Each enabled action contributes at most one successor per state, so
	// n × actions bounds the edge count; for the spaces the service sees
	// one allocation then holds every edge.
	off := make([]int, n+1)
	to := make([]int, 0, min(n*len(l.Actions), MaxEdgeHintBytes/(bits.UintSize/8)))
	init := bitset.New(n)
	w := l.Walk()
	for s := 0; ; s++ {
		if err := gas.Tick(1); err != nil {
			return nil, fmt.Errorf("gcl: compiling %s: %w", name, err)
		}
		isInit, err := w.Init()
		if err != nil {
			return nil, evalFailure(sp, s, err)
		}
		if isInit {
			init.Add(s)
		}
		start := len(to)
		for ai := range l.Actions {
			a := &l.Actions[ai]
			enabled, err := w.Guard(ai)
			if err != nil {
				return nil, evalFailure(sp, s, err)
			}
			if !enabled {
				continue
			}
			// Simultaneous semantics: every right-hand side reads the
			// pre-state, and each assignment moves the state index by its
			// value change times the target's stride.
			t := s
			for i := range a.Assigns {
				as := &a.Assigns[i]
				v, err := w.Value(ai, i)
				if err != nil {
					return nil, evalFailure(sp, s, err)
				}
				enc, err := as.Encode(v)
				if err != nil {
					return nil, &EvalError{Pos: as.Decl.Pos,
						Msg:   fmt.Sprintf("action %q: %v", a.Decl.Name, err),
						State: sp.StateString(s)}
				}
				t += (enc - w.Vals()[as.Var]) * as.Stride
			}
			to = insertSuccessor(to, start, t)
		}
		off[s+1] = len(to)
		if !w.Next() {
			break
		}
	}
	return &Compiled{Program: prog, Space: sp, System: system.FromSuccessors(name, sp, off, to, init)}, nil
}

// MaxEdgeHintBytes caps the up-front allocation of an enumeration's
// successor array; larger automata grow the array by appending.
const MaxEdgeHintBytes = 8 << 20

// insertSuccessor adds t to the sorted, duplicate-free run to[start:],
// the current state's successors so far.
func insertSuccessor(to []int, start, t int) []int {
	i := len(to)
	for i > start && to[i-1] > t {
		i--
	}
	if i > start && to[i-1] == t {
		return to
	}
	to = append(to, 0)
	copy(to[i+1:], to[i:])
	to[i] = t
	return to
}

// SpaceOf builds the structured state space of a program's declarations.
func SpaceOf(prog *Program) *system.Space {
	vars := make([]system.Var, len(prog.Vars))
	for i, v := range prog.Vars {
		if v.IsBool {
			vars[i] = system.Bool(v.Name)
		} else if v.Lo == 0 {
			vars[i] = system.Int(v.Name, v.Card())
		} else {
			lo := v.Lo
			vars[i] = system.Var{Name: v.Name, Card: v.Card(), Fmt: func(x int) string {
				return fmt.Sprintf("%d", x+lo)
			}}
		}
	}
	return system.NewSpace(vars...)
}

func evalFailure(sp *system.Space, s int, err error) error {
	if ee, okk := err.(*EvalError); okk && ee.State == "" {
		ee.State = sp.StateString(s)
		return ee
	}
	return err
}
