package gcl

import (
	"fmt"

	"repro/internal/system"
)

// The oracle: the tree-walking evaluator and the per-state Decode
// enumeration the lowered evaluator replaced, kept as the reference the
// differential tests compare Eval and CompileProgram against.

// oracleEval evaluates e in env by walking the expression tree.
func oracleEval(p *Program, e Expr, env system.Vals) (int, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, nil
	case *BoolLit:
		if e.Value {
			return 1, nil
		}
		return 0, nil
	case *Ident:
		v := p.Vars[e.Index]
		if v.IsBool {
			return env[e.Index], nil
		}
		return env[e.Index] + v.Lo, nil
	case *Unary:
		x, err := oracleEval(p, e.X, env)
		if err != nil {
			return 0, err
		}
		if e.Op == KindNot {
			return 1 - x, nil
		}
		return -x, nil
	case *Cond:
		c, err := oracleEval(p, e.C, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return oracleEval(p, e.X, env)
		}
		return oracleEval(p, e.Y, env)
	case *Binary:
		x, err := oracleEval(p, e.X, env)
		if err != nil {
			return 0, err
		}
		// Short-circuit logic.
		switch e.Op {
		case KindAnd:
			if x == 0 {
				return 0, nil
			}
			return oracleEval(p, e.Y, env)
		case KindOr:
			if x != 0 {
				return 1, nil
			}
			return oracleEval(p, e.Y, env)
		}
		y, err := oracleEval(p, e.Y, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case KindPlus:
			return x + y, nil
		case KindMinus:
			return x - y, nil
		case KindStar:
			return x * y, nil
		case KindSlash:
			if y == 0 {
				return 0, &EvalError{Pos: e.Pos, Msg: "division by zero"}
			}
			return floorDiv(x, y), nil
		case KindPercent:
			if y == 0 {
				return 0, &EvalError{Pos: e.Pos, Msg: "modulo by zero"}
			}
			return floorMod(x, y), nil
		case KindEq:
			return b2i(x == y), nil
		case KindNeq:
			return b2i(x != y), nil
		case KindLt:
			return b2i(x < y), nil
		case KindLe:
			return b2i(x <= y), nil
		case KindGt:
			return b2i(x > y), nil
		case KindGe:
			return b2i(x >= y), nil
		}
		return 0, &EvalError{Pos: e.Pos, Msg: fmt.Sprintf("unknown operator %s", e.Op)}
	default:
		return 0, &EvalError{Pos: e.Position(), Msg: "unknown expression node"}
	}
}

func oracleEvalBool(p *Program, e Expr, env system.Vals) (bool, error) {
	v, err := oracleEval(p, e, env)
	return v != 0, err
}

// oracleCompile enumerates prog by decoding every state and walking the
// expression trees, adding edges one at a time through system.Builder.
func oracleCompile(name string, prog *Program) (*Compiled, error) {
	if err := Check(prog); err != nil {
		return nil, fmt.Errorf("gcl: checking %s: %w", name, err)
	}
	sp := SpaceOf(prog)
	b := system.NewSpaceBuilder(name, sp)
	varIndex := func(name string) int {
		for i, v := range prog.Vars {
			if v.Name == name {
				return i
			}
		}
		panic(fmt.Sprintf("gcl: unresolved variable %q", name))
	}
	env := make(system.Vals, len(prog.Vars))
	next := make(system.Vals, len(prog.Vars))
	for s := 0; s < sp.Size(); s++ {
		env = sp.Decode(s, env)
		if prog.Init == nil {
			b.AddInit(s)
		} else {
			isInit, err := oracleEvalBool(prog, prog.Init, env)
			if err != nil {
				return nil, evalFailure(sp, s, err)
			}
			if isInit {
				b.AddInit(s)
			}
		}
		for ai := range prog.Actions {
			a := &prog.Actions[ai]
			enabled, err := oracleEvalBool(prog, a.Guard, env)
			if err != nil {
				return nil, evalFailure(sp, s, err)
			}
			if !enabled {
				continue
			}
			copy(next, env)
			for _, as := range a.Assigns {
				v, err := oracleEval(prog, as.Expr, env)
				if err != nil {
					return nil, evalFailure(sp, s, err)
				}
				vi := varIndex(as.Name)
				decl := prog.Vars[vi]
				var enc int
				switch {
				case decl.IsBool && v != 0 && v != 1:
					err = fmt.Errorf("boolean %q assigned %d", decl.Name, v)
				case !decl.IsBool && (v < decl.Lo || v > decl.Hi):
					err = fmt.Errorf("variable %q assigned %d outside %d..%d", decl.Name, v, decl.Lo, decl.Hi)
				default:
					enc = v - decl.Lo
					if decl.IsBool {
						enc = v
					}
				}
				if err != nil {
					return nil, &EvalError{Pos: as.Pos,
						Msg:   fmt.Sprintf("action %q: %v", a.Name, err),
						State: sp.StateString(s)}
				}
				next[vi] = enc
			}
			b.AddTransition(s, sp.Encode(next))
		}
	}
	return &Compiled{Program: prog, Space: sp, System: b.Build()}, nil
}
