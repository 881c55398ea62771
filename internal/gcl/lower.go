package gcl

import (
	"fmt"

	"repro/internal/system"
)

// The lowered evaluator. A checked program is lowered once into Go
// closures — one per expression node, with every variable index, domain
// bound and state-index stride resolved ahead of time — and the state
// space is then walked in odometer order, so the per-state work is a
// handful of indirect calls with no tree walk, no name lookup and no
// Decode. It is the only evaluator: Eval, CompileProgram and the lint
// exact tier all run over it.

// machine is what lowered closures evaluate against: the current
// state's encoded values and the first evaluation error.
type machine struct {
	env system.Vals
	err *EvalError
}

// fail records an evaluation error. Only the first one counts: it is the
// error the left-to-right, depth-first evaluation order meets first, so
// closures may keep computing (on dummy values) after a failure instead
// of threading an error through every return.
func (m *machine) fail(pos Pos, msg string) {
	if m.err == nil {
		m.err = &EvalError{Pos: pos, Msg: msg}
	}
}

// exprFn is a lowered expression: integer results in source units,
// booleans as 0/1, exactly as Eval returns them.
type exprFn func(m *machine) int

// lowerExpr lowers one expression of p. Identifiers must have been
// resolved by Check.
func lowerExpr(p *Program, e Expr) exprFn {
	switch e := e.(type) {
	case *IntLit:
		v := e.Value
		return func(*machine) int { return v }
	case *BoolLit:
		v := b2i(e.Value)
		return func(*machine) int { return v }
	case *Ident:
		i := e.Index
		if lo := identOffset(p, e); lo != 0 {
			return func(m *machine) int { return m.env[i] + lo }
		}
		return func(m *machine) int { return m.env[i] }
	case *Unary:
		x := lowerExpr(p, e.X)
		if e.Op == KindNot {
			return func(m *machine) int { return 1 - x(m) }
		}
		return func(m *machine) int { return -x(m) }
	case *Cond:
		c, x, y := lowerExpr(p, e.C), lowerExpr(p, e.X), lowerExpr(p, e.Y)
		return func(m *machine) int {
			if c(m) != 0 {
				return x(m)
			}
			return y(m)
		}
	case *Binary:
		return lowerBinary(p, e)
	default:
		pos := e.Position()
		return func(m *machine) int {
			m.fail(pos, "unknown expression node")
			return 0
		}
	}
}

func lowerBinary(p *Program, e *Binary) exprFn {
	// Constant right operands are the common shape of ring guards and
	// modular updates (x == 0, (x + 1) % 3); they get their own closures,
	// fused with a variable left operand where that saves a call.
	if k, ok := e.Y.(*IntLit); ok {
		if id, ok := e.X.(*Ident); ok {
			if f := lowerIdentConst(p, e.Op, id, k.Value); f != nil {
				return f
			}
		}
		if f := lowerConstRight(e.Op, lowerExpr(p, e.X), k.Value); f != nil {
			return f
		}
	}
	x := lowerExpr(p, e.X)
	y := lowerExpr(p, e.Y)
	pos := e.Pos
	if id, ok := e.X.(*Ident); ok && (e.Op == KindEq || e.Op == KindNeq) {
		i, lo := id.Index, identOffset(p, id)
		if e.Op == KindEq {
			return func(m *machine) int { return b2i(m.env[i]+lo == y(m)) }
		}
		return func(m *machine) int { return b2i(m.env[i]+lo != y(m)) }
	}
	switch e.Op {
	case KindAnd:
		return func(m *machine) int {
			if x(m) == 0 {
				return 0
			}
			return y(m)
		}
	case KindOr:
		return func(m *machine) int {
			if x(m) != 0 {
				return 1
			}
			return y(m)
		}
	case KindPlus:
		return func(m *machine) int { return x(m) + y(m) }
	case KindMinus:
		return func(m *machine) int { return x(m) - y(m) }
	case KindStar:
		return func(m *machine) int { return x(m) * y(m) }
	case KindSlash:
		return func(m *machine) int {
			a, b := x(m), y(m)
			if b == 0 {
				m.fail(pos, "division by zero")
				return 0
			}
			return floorDiv(a, b)
		}
	case KindPercent:
		return func(m *machine) int {
			a, b := x(m), y(m)
			if b == 0 {
				m.fail(pos, "modulo by zero")
				return 0
			}
			return floorMod(a, b)
		}
	case KindEq:
		return func(m *machine) int { return b2i(x(m) == y(m)) }
	case KindNeq:
		return func(m *machine) int { return b2i(x(m) != y(m)) }
	case KindLt:
		return func(m *machine) int { return b2i(x(m) < y(m)) }
	case KindLe:
		return func(m *machine) int { return b2i(x(m) <= y(m)) }
	case KindGt:
		return func(m *machine) int { return b2i(x(m) > y(m)) }
	case KindGe:
		return func(m *machine) int { return b2i(x(m) >= y(m)) }
	}
	msg := fmt.Sprintf("unknown operator %s", e.Op)
	return func(m *machine) int {
		x(m)
		y(m)
		m.fail(pos, msg)
		return 0
	}
}

// lowerIdentConst fuses v op k for a variable v and a literal k into one
// closure, or returns nil for operators it leaves to lowerConstRight.
func lowerIdentConst(p *Program, op TokenKind, id *Ident, k int) exprFn {
	i, lo := id.Index, identOffset(p, id)
	switch op {
	case KindPlus:
		c := lo + k
		return func(m *machine) int { return m.env[i] + c }
	case KindMinus:
		c := lo - k
		return func(m *machine) int { return m.env[i] + c }
	}
	// Comparisons move the offset to the constant side, unless that
	// overflows.
	c := k - lo
	if (lo > 0 && c > k) || (lo < 0 && c < k) {
		return nil
	}
	switch op {
	case KindEq:
		return func(m *machine) int { return b2i(m.env[i] == c) }
	case KindNeq:
		return func(m *machine) int { return b2i(m.env[i] != c) }
	case KindLt:
		return func(m *machine) int { return b2i(m.env[i] < c) }
	case KindLe:
		return func(m *machine) int { return b2i(m.env[i] <= c) }
	case KindGt:
		return func(m *machine) int { return b2i(m.env[i] > c) }
	case KindGe:
		return func(m *machine) int { return b2i(m.env[i] >= c) }
	}
	return nil
}

// lowerConstRight specializes x op k for a literal k, or returns nil
// when the operator gains nothing from it (logic, and division or
// modulo by a zero literal, which must still fail at evaluation time).
func lowerConstRight(op TokenKind, x exprFn, k int) exprFn {
	switch op {
	case KindPlus:
		return func(m *machine) int { return x(m) + k }
	case KindMinus:
		return func(m *machine) int { return x(m) - k }
	case KindStar:
		return func(m *machine) int { return x(m) * k }
	case KindSlash:
		if k != 0 {
			return func(m *machine) int { return floorDiv(x(m), k) }
		}
	case KindPercent:
		if k > 0 {
			return func(m *machine) int {
				r := x(m) % k
				if r < 0 {
					r += k
				}
				return r
			}
		}
		if k != 0 {
			return func(m *machine) int { return floorMod(x(m), k) }
		}
	case KindEq:
		return func(m *machine) int { return b2i(x(m) == k) }
	case KindNeq:
		return func(m *machine) int { return b2i(x(m) != k) }
	case KindLt:
		return func(m *machine) int { return b2i(x(m) < k) }
	case KindLe:
		return func(m *machine) int { return b2i(x(m) <= k) }
	case KindGt:
		return func(m *machine) int { return b2i(x(m) > k) }
	case KindGe:
		return func(m *machine) int { return b2i(x(m) >= k) }
	}
	return nil
}

// identOffset is what Eval adds to an identifier's encoded value: its
// range's lower bound (booleans and 0-based ranges add nothing).
func identOffset(p *Program, id *Ident) int {
	if v := p.Vars[id.Index]; !v.IsBool {
		return v.Lo
	}
	return 0
}

// Lowered is a checked program lowered to closures: the init predicate,
// every guard, and every assignment with its target resolved.
type Lowered struct {
	Space *system.Space
	// Actions parallels the program's actions.
	Actions []LoweredAction

	init exprFn // nil when every state is initial
}

// LoweredAction is one lowered guarded command.
type LoweredAction struct {
	Decl    *ActionDecl
	Assigns []LoweredAssign

	guard exprFn
}

// LoweredAssign is one lowered assignment: its right-hand side plus the
// target variable's index and stride in the state index; Encode checks
// the target's domain.
type LoweredAssign struct {
	Decl   *Assign
	Var    int
	Stride int

	lo, hi int // the target's domain in source units
	target VarDecl
	expr   exprFn
}

// Lower checks prog and lowers it. It is idempotent on prog, like Check.
func Lower(prog *Program) (*Lowered, error) {
	if err := Check(prog); err != nil {
		return nil, err
	}
	sp := SpaceOf(prog)
	l := &Lowered{Space: sp, Actions: make([]LoweredAction, len(prog.Actions))}
	if prog.Init != nil {
		l.init = lowerExpr(prog, prog.Init)
	}
	nAssigns := 0
	for ai := range prog.Actions {
		nAssigns += len(prog.Actions[ai].Assigns)
	}
	assigns := make([]LoweredAssign, nAssigns)
	for ai := range prog.Actions {
		a := &prog.Actions[ai]
		k := len(a.Assigns)
		la := LoweredAction{Decl: a, guard: lowerExpr(prog, a.Guard), Assigns: assigns[:k:k]}
		assigns = assigns[k:]
		for i := range a.Assigns {
			as := &a.Assigns[i]
			vi := varIndex(prog, as.Name)
			decl := prog.Vars[vi]
			lo, hi := decl.Lo, decl.Hi
			if decl.IsBool {
				lo, hi = 0, 1
			}
			la.Assigns[i] = LoweredAssign{Decl: as, Var: vi, lo: lo, hi: hi,
				Stride: sp.Stride(vi), target: decl, expr: lowerExpr(prog, as.Expr)}
		}
		l.Actions[ai] = la
	}
	return l, nil
}

// varIndex resolves an assignment target Check has already accepted.
func varIndex(prog *Program, name string) int {
	for i, v := range prog.Vars {
		if v.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("gcl: unresolved variable %q", name)) // unreachable after Check
}

// Encode maps a right-hand-side value to the target's 0-based encoding,
// rejecting a value outside the target's domain.
func (as *LoweredAssign) Encode(v int) (int, error) {
	if v < as.lo || v > as.hi {
		if as.target.IsBool {
			return 0, fmt.Errorf("boolean %q assigned %d", as.target.Name, v)
		}
		return 0, fmt.Errorf("variable %q assigned %d outside %d..%d", as.target.Name, v, as.lo, as.hi)
	}
	return v - as.lo, nil
}

// Walker visits a lowered program's states in index order. The decoded
// values advance by an odometer increment, so no state is decoded from
// its index. Errors from Init, Guard and Value are *EvalError without a
// state; the caller names the state.
type Walker struct {
	l     *Lowered
	m     machine
	small [8]int // env storage for programs of up to 8 variables
}

// Walk returns a walker positioned at state 0.
func (l *Lowered) Walk() *Walker {
	w := &Walker{l: l}
	if n := l.Space.NumVars(); n <= len(w.small) {
		w.m.env = w.small[:n:n]
	} else {
		w.m.env = make(system.Vals, n)
	}
	return w
}

// Vals returns the current state's encoded values. The slice is the
// walker's own and changes with Next.
func (w *Walker) Vals() system.Vals { return w.m.env }

// Next advances to the next state, reporting false past the last one.
func (w *Walker) Next() bool {
	env, sp := w.m.env, w.l.Space
	for i := range env {
		if env[i]++; env[i] < sp.Card(i) {
			return true
		}
		env[i] = 0
	}
	return false
}

// Init evaluates the init predicate; a program without one makes every
// state initial.
func (w *Walker) Init() (bool, error) {
	if w.l.init == nil {
		return true, nil
	}
	return w.truth(w.l.init)
}

// Guard evaluates action a's guard.
func (w *Walker) Guard(a int) (bool, error) { return w.truth(w.l.Actions[a].guard) }

// Value evaluates the right-hand side of action a's i-th assignment in
// the current (pre-)state, in source units.
func (w *Walker) Value(a, i int) (int, error) {
	w.m.err = nil
	v := w.l.Actions[a].Assigns[i].expr(&w.m)
	if w.m.err != nil {
		return 0, w.m.err
	}
	return v, nil
}

func (w *Walker) truth(f exprFn) (bool, error) {
	w.m.err = nil
	v := f(&w.m)
	if w.m.err != nil {
		return false, w.m.err
	}
	return v != 0, nil
}
