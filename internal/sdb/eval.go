package sdb

import (
	"fmt"

	"qbism/internal/lfm"
)

// Call is what a user-defined function sees of the statement evaluating
// it: the long-field account its reads are billed to, the operator its
// work is charged to and the call site's working memory. It is part of
// the operator that makes the call, valid for that call only.
type Call struct {
	io    *lfm.IO
	st    *opStats    // nil outside the executor
	sites []SiteState // the execution's, by FuncCall.site; nil outside the executor
	site  int         // the call being made: its site and function
	udf   *UDF
}

// IO returns the running statement's long-field account. What a
// function reads through it is on that statement's bill (Rows.IO) and
// on the pages of the operator whose expression called it.
func (c *Call) IO() *lfm.IO { return c.io }

// State returns the working memory of the call site being evaluated:
// made by the function's UDF.State hook on the site's first call in
// this execution's operator tree, and the same value at every later
// call of the site, in this execution and the next ones on the tree. It
// is nil for a function without the hook and outside an execution —
// an INSERT — where a function allocates what it needs per call.
func (c *Call) State() SiteState {
	if c.sites == nil || c.udf.State == nil {
		return nil
	}
	s := c.sites[c.site]
	if s == nil {
		s = c.udf.State()
		c.sites[c.site] = s
	}
	return s
}

// NoteProbe records that the function answered a REGION access on the
// compressed representation, with no run list materialized. EXPLAIN
// ANALYZE shows the count per operator.
func (c *Call) NoteProbe() {
	if c.st != nil {
		c.st.probes++
	}
}

// env is the evaluation context of one operator (or of an INSERT's
// values): the tuple under evaluation, the statement's bind values,
// and what its UDF invocations see and are charged to. Column
// references and function calls were bound when the statement was
// compiled, so evaluation touches no names.
type env struct {
	db     *DB
	params []Value
	call   Call
	stack  *argStack // shared by every operator of the execution

	rows [][]Value // the current tuple: one row per slot, in join order
}

// argStack holds the argument vectors of the calls under evaluation,
// one frame above another: a call's arguments are evaluated into its
// frame, and a call among them pushes its own frame on top. An
// execution owns one and keeps its capacity from run to run, so a call
// allocates no argument vector.
type argStack struct{ v []Value }

// push returns a frame of n values on top of the stack.
func (s *argStack) push(n int) []Value {
	top := len(s.v)
	if cap(s.v)-top < n {
		// The frames below stay in the array they were cut from; only
		// this frame and those above it live in the larger one.
		s.v = make([]Value, top, 2*cap(s.v)+n)
	}
	s.v = s.v[:top+n]
	return s.v[top : top+n : top+n]
}

// pop drops the frames from top up, zeroed: no row, blob or Object
// outlives the call it was an argument of.
func (s *argStack) pop(top int) {
	clear(s.v[top:])
	s.v = s.v[:top]
}

// eval evaluates a bound expression against the current tuple. An
// Object a call returns goes no further than here: its value is the
// BYTES it encodes to.
func (e *env) eval(x Expr) (Value, error) {
	switch n := x.(type) {
	case *Literal:
		return n.Val, nil
	case *Placeholder:
		if n.Idx < 0 || n.Idx >= len(e.params) {
			return Value{}, fmt.Errorf("sdb: no value bound for parameter %d", n.Idx+1)
		}
		return e.params[n.Idx], nil
	case *ColumnRef:
		return e.rows[n.slot][n.col], nil
	case *UnaryExpr:
		v, err := e.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case "NOT":
			if v.T != TBool {
				return Value{}, fmt.Errorf("sdb: NOT applied to %s", v.T)
			}
			return Bool(!v.B), nil
		case "-":
			switch v.T {
			case TInt:
				return Int(-v.I), nil
			case TFloat:
				return Float(-v.F), nil
			default:
				return Value{}, fmt.Errorf("sdb: unary minus applied to %s", v.T)
			}
		default:
			return Value{}, fmt.Errorf("sdb: unknown unary operator %q", n.Op)
		}
	case *BinaryExpr:
		return e.evalBinary(n)
	case *FuncCall:
		v, err := e.apply(n)
		if err != nil || v.T != TObject {
			return v, err
		}
		enc, err := v.O.Encode()
		if err != nil {
			return Value{}, fmt.Errorf("sdb: function %q: %w", n.Name, err)
		}
		return Bytes(enc), nil
	default:
		return Value{}, fmt.Errorf("sdb: cannot evaluate %T", x)
	}
}

// apply evaluates a function call, whose value may be an Object: eval
// encodes it, and a call that is the argument of another hands it over
// as it is.
func (e *env) apply(n *FuncCall) (Value, error) {
	u := n.udf
	if u == nil {
		return Value{}, fmt.Errorf("sdb: unknown function %q", n.Name)
	}
	if len(n.Args) < u.MinArgs || (u.MaxArgs >= 0 && len(n.Args) > u.MaxArgs) {
		return Value{}, fmt.Errorf("sdb: function %q called with %d args", u.Name, len(n.Args))
	}
	top := len(e.stack.v)
	args := e.stack.push(len(n.Args))
	defer e.stack.pop(top)
	for i, a := range n.Args {
		var v Value
		var err error
		if f, ok := a.(*FuncCall); ok {
			v, err = e.apply(f)
		} else {
			v, err = e.eval(a)
		}
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	if e.call.st != nil {
		e.call.st.udfCalls++
	}
	e.db.m.udfCalls.Inc()
	if u.ProbeOnly {
		e.db.m.udfProbeCalls.Inc()
	}
	e.call.site, e.call.udf = n.site, u
	out, err := u.Fn(&e.call, args)
	if err != nil {
		return Value{}, fmt.Errorf("sdb: function %q: %w", u.Name, err)
	}
	return out, nil
}

func (e *env) evalBinary(n *BinaryExpr) (Value, error) {
	// AND short-circuits so predicate chains stay cheap.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := e.eval(n.Left)
		if err != nil {
			return Value{}, err
		}
		if l.T != TBool {
			return Value{}, fmt.Errorf("sdb: %s operand is %s, not BOOL", n.Op, l.T)
		}
		if n.Op == "AND" && !l.B {
			return Bool(false), nil
		}
		if n.Op == "OR" && l.B {
			return Bool(true), nil
		}
		r, err := e.eval(n.Right)
		if err != nil {
			return Value{}, err
		}
		if r.T != TBool {
			return Value{}, fmt.Errorf("sdb: %s operand is %s, not BOOL", n.Op, r.T)
		}
		return r, nil
	}

	l, err := e.eval(n.Left)
	if err != nil {
		return Value{}, err
	}
	r, err := e.eval(n.Right)
	if err != nil {
		return Value{}, err
	}
	switch n.Op {
	case "=":
		return Bool(l.Equal(r)), nil
	case "<>":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		return Bool(!l.Equal(r)), nil
	case "<":
		less, err := l.Less(r)
		if err != nil {
			return Value{}, err
		}
		return Bool(less), nil
	case ">":
		less, err := r.Less(l)
		if err != nil {
			return Value{}, err
		}
		return Bool(less), nil
	case "<=":
		more, err := r.Less(l)
		if err != nil {
			return Value{}, err
		}
		return Bool(!more), nil
	case ">=":
		less, err := l.Less(r)
		if err != nil {
			return Value{}, err
		}
		return Bool(!less), nil
	case "+", "-", "*", "/", "%":
		return arith(n.Op, l, r)
	default:
		return Value{}, fmt.Errorf("sdb: unknown operator %q", n.Op)
	}
}

// arith performs arithmetic with int/float promotion; two ints stay int.
func arith(op string, l, r Value) (Value, error) {
	if l.T == TInt && r.T == TInt {
		switch op {
		case "+":
			return Int(l.I + r.I), nil
		case "-":
			return Int(l.I - r.I), nil
		case "*":
			return Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return Value{}, fmt.Errorf("sdb: division by zero")
			}
			return Int(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return Value{}, fmt.Errorf("sdb: division by zero")
			}
			return Int(l.I % r.I), nil
		}
	}
	lf, lok := l.numeric()
	rf, rok := r.numeric()
	if !lok || !rok {
		return Value{}, fmt.Errorf("sdb: arithmetic on %s and %s", l.T, r.T)
	}
	switch op {
	case "+":
		return Float(lf + rf), nil
	case "-":
		return Float(lf - rf), nil
	case "*":
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return Value{}, fmt.Errorf("sdb: division by zero")
		}
		return Float(lf / rf), nil
	case "%":
		return Value{}, fmt.Errorf("sdb: %% requires integers")
	}
	return Value{}, fmt.Errorf("sdb: unknown arithmetic operator %q", op)
}
