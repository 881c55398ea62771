package gcl

import (
	"fmt"

	"repro/internal/system"
)

// EvalError reports a runtime evaluation failure (division by zero, or an
// assignment leaving a variable's domain) together with the state in which
// it occurred.
type EvalError struct {
	Pos   Pos
	Msg   string
	State string
}

// Error implements error.
func (e *EvalError) Error() string {
	if e.State != "" {
		return fmt.Sprintf("%s: %s (in state %s)", e.Pos, e.Msg, e.State)
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Eval evaluates a checked expression in the environment env, which holds
// each variable's 0-based encoded value (booleans as 0/1; range variables
// offset by their lower bound). Integer results are returned in source
// units (i.e. with range offsets applied); boolean results as 0/1.
//
// Eval lowers e on every call; loops over many states lower once with
// Lower and evaluate through a Walker.
func Eval(p *Program, e Expr, env system.Vals) (int, error) {
	m := machine{env: env}
	v := lowerExpr(p, e)(&m)
	if m.err != nil {
		return 0, m.err
	}
	return v, nil
}

// EvalBool evaluates a boolean expression.
func EvalBool(p *Program, e Expr, env system.Vals) (bool, error) {
	v, err := Eval(p, e, env)
	return v != 0, err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// floorDiv and floorMod implement mathematical (floored) division so the
// ⊕/⊖ modulo-K arithmetic of the paper behaves correctly on negative
// intermediates: (-1) % 3 == 2.
func floorDiv(x, y int) int {
	q := x / y
	if (x%y != 0) && ((x < 0) != (y < 0)) {
		q--
	}
	return q
}

func floorMod(x, y int) int {
	m := x % y
	if m != 0 && ((x < 0) != (y < 0)) {
		m += y
	}
	return m
}
