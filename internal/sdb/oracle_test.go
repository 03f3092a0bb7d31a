package sdb

// The differential-testing oracle: a verbatim copy of the pre-planner
// materializing SELECT executor (recursive nested loops over the greedy
// join order, conjuncts evaluated at the level where they bind). The
// equivalence fuzz test runs randomized queries through both this and
// the Volcano pipeline and requires identical output, so refactors of
// the live executor are checked against the original semantics.

import (
	"fmt"
	"strings"

	"qbism/internal/lfm"
)

// oracleFrame binds one FROM-clause table alias to a current row during
// evaluation.
type oracleFrame struct {
	alias string
	table *Table
	row   []Value
}

// oracleEnv is the legacy evaluation environment: the bound frames, in join order,
// plus the statement's bind-parameter values. Columns resolve by name
// against the frames on every evaluation and functions by registry
// lookup on every call — the per-row work the live executor binds away
// at compile time (the live copy's metrics and operator-stats charging
// are dropped here; nothing else differs from the pre-PR-13 eval.go).
type oracleEnv struct {
	db     *DB
	frames []oracleFrame
	params []Value
}

// lookupColumn resolves a (possibly qualified) column reference against
// the bound frames.
func (e *oracleEnv) lookupColumn(ref *ColumnRef) (Value, error) {
	if ref.Qualifier != "" {
		for _, f := range e.frames {
			if strings.EqualFold(f.alias, ref.Qualifier) {
				idx := f.table.ColumnIndex(ref.Name)
				if idx < 0 {
					return Value{}, fmt.Errorf("sdb: table %q has no column %q", f.alias, ref.Name)
				}
				return f.row[idx], nil
			}
		}
		return Value{}, fmt.Errorf("sdb: unknown table alias %q", ref.Qualifier)
	}
	found := -1
	var val Value
	for _, f := range e.frames {
		if idx := f.table.ColumnIndex(ref.Name); idx >= 0 {
			if found >= 0 {
				return Value{}, fmt.Errorf("sdb: ambiguous column %q", ref.Name)
			}
			found = 0
			val = f.row[idx]
		}
	}
	if found < 0 {
		return Value{}, fmt.Errorf("sdb: unknown column %q", ref.Name)
	}
	return val, nil
}

// eval evaluates an expression in the environment.
func (e *oracleEnv) eval(x Expr) (Value, error) {
	switch n := x.(type) {
	case *Literal:
		return n.Val, nil
	case *Placeholder:
		if n.Idx < 0 || n.Idx >= len(e.params) {
			return Value{}, fmt.Errorf("sdb: no value bound for parameter %d", n.Idx+1)
		}
		return e.params[n.Idx], nil
	case *ColumnRef:
		return e.lookupColumn(n)
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
		u, ok := e.db.lookupUDF(n.Name)
		if !ok {
			return Value{}, fmt.Errorf("sdb: unknown function %q", n.Name)
		}
		if len(n.Args) < u.MinArgs || (u.MaxArgs >= 0 && len(n.Args) > u.MaxArgs) {
			return Value{}, fmt.Errorf("sdb: function %q called with %d args", u.Name, len(n.Args))
		}
		args := make([]Value, len(n.Args))
		for i, a := range n.Args {
			v, err := e.eval(a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		out, err := u.Fn(&Call{io: &lfm.IO{M: e.db.lfm}}, args)
		if err != nil {
			return Value{}, fmt.Errorf("sdb: function %q: %w", u.Name, err)
		}
		return out, nil
	default:
		return Value{}, fmt.Errorf("sdb: cannot evaluate %T", x)
	}
}

func (e *oracleEnv) evalBinary(n *BinaryExpr) (Value, error) {
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

// evalWithAggregates evaluates x in env, substituting computed values
// for the identified aggregate calls (matched by pointer).
func (e *oracleEnv) evalWithAggregates(x Expr, calls []*FuncCall, values []Value) (Value, error) {
	if fc, ok := x.(*FuncCall); ok {
		for i, c := range calls {
			if fc == c {
				return values[i], nil
			}
		}
	}
	switch n := x.(type) {
	case *BinaryExpr:
		// Rebuild with substituted children by evaluating recursively.
		l, err := e.evalWithAggregates(n.Left, calls, values)
		if err != nil {
			return Value{}, err
		}
		r, err := e.evalWithAggregates(n.Right, calls, values)
		if err != nil {
			return Value{}, err
		}
		return e.evalBinary(&BinaryExpr{Op: n.Op, Left: &Literal{Val: l}, Right: &Literal{Val: r}})
	case *UnaryExpr:
		v, err := e.evalWithAggregates(n.X, calls, values)
		if err != nil {
			return Value{}, err
		}
		return e.eval(&UnaryExpr{Op: n.Op, X: &Literal{Val: v}})
	default:
		return e.eval(x)
	}
}

// oracleGroup accumulates one GROUP BY bucket.
type oracleGroup struct {
	frames []oracleFrame // snapshot of the first row's bindings
	aggs   []*aggState   // parallel to the query's aggregate call list
}

// oraclePlan mirrors the old selectPlan shape.
type oraclePlan struct {
	ordered    []source
	levelConj  [][]Expr
	aggCalls   []*FuncCall
	aggregated bool
	columns    []string
}

func oraclePlanSelect(db *DB, s *SelectStmt) (*oraclePlan, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("sdb: SELECT without FROM")
	}
	sources := make([]source, 0, len(s.From))
	byAlias := make(map[string]*Table)
	for _, ref := range s.From {
		t, err := db.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(ref.Alias)
		if _, dup := byAlias[key]; dup {
			return nil, fmt.Errorf("sdb: duplicate table alias %q", ref.Alias)
		}
		byAlias[key] = t
		sources = append(sources, source{alias: ref.Alias, table: t})
	}

	labels := make([]string, len(s.Exprs))
	for i, item := range s.Exprs {
		if !item.Star {
			labels[i] = exprLabel(item.Expr)
		}
	}

	resolve := func(x Expr) error { return resolveColumns(x, sources2map(sources)) }
	for _, item := range s.Exprs {
		if !item.Star {
			if err := resolve(item.Expr); err != nil {
				return nil, err
			}
		}
	}
	var conjuncts []conjunct
	if s.Where != nil {
		if err := resolve(s.Where); err != nil {
			return nil, err
		}
		var aggCheck []*FuncCall
		if err := collectAggregates(s.Where, &aggCheck, false); err != nil {
			return nil, err
		}
		if len(aggCheck) > 0 {
			return nil, fmt.Errorf("sdb: aggregates are not allowed in WHERE")
		}
		for _, c := range splitConjuncts(s.Where) {
			conjuncts = append(conjuncts, conjunct{expr: c, aliases: exprAliases(c)})
		}
	}
	for _, g := range s.GroupBy {
		if err := resolve(g); err != nil {
			return nil, err
		}
	}
	for _, oi := range s.OrderBy {
		if err := resolve(oi.Expr); err != nil {
			return nil, err
		}
	}

	var aggCalls []*FuncCall
	for _, item := range s.Exprs {
		if !item.Star {
			if err := collectAggregates(item.Expr, &aggCalls, false); err != nil {
				return nil, err
			}
		}
	}
	for _, oi := range s.OrderBy {
		if err := collectAggregates(oi.Expr, &aggCalls, false); err != nil {
			return nil, err
		}
	}
	aggregated := len(aggCalls) > 0 || len(s.GroupBy) > 0

	order := planOrder(sources2aliases(sources), conjuncts)
	ordered := make([]source, 0, len(sources))
	for _, a := range order {
		for _, src := range sources {
			if strings.EqualFold(src.alias, a) {
				ordered = append(ordered, src)
			}
		}
	}

	levelConj := make([][]Expr, len(ordered))
	for _, c := range conjuncts {
		level := 0
		remaining := len(c.aliases)
		for li, src := range ordered {
			if c.aliases[strings.ToLower(src.alias)] {
				remaining--
				if remaining == 0 {
					level = li
					break
				}
			}
		}
		levelConj[level] = append(levelConj[level], c.expr)
	}

	var columns []string
	for i, item := range s.Exprs {
		if item.Star {
			for _, src := range ordered {
				for _, col := range src.table.Columns {
					columns = append(columns, src.alias+"."+col.Name)
				}
			}
		} else {
			columns = append(columns, labels[i])
		}
	}

	if aggregated {
		for _, item := range s.Exprs {
			if item.Star {
				return nil, fmt.Errorf("sdb: SELECT * cannot be combined with aggregates or GROUP BY")
			}
		}
	}

	return &oraclePlan{
		ordered:    ordered,
		levelConj:  levelConj,
		aggCalls:   aggCalls,
		aggregated: aggregated,
		columns:    columns,
	}, nil
}

// oracleExecSelect is the old all-at-once execSelect, plus bind
// parameters and OFFSET (applied to the materialized result, which
// defines the semantics the limit operator must match).
func oracleExecSelect(db *DB, s *SelectStmt, params []Value) (*Result, error) {
	plan, err := oraclePlanSelect(db, s)
	if err != nil {
		return nil, err
	}
	ordered := plan.ordered
	levelConj := plan.levelConj
	aggCalls := plan.aggCalls
	aggregated := plan.aggregated
	columns := plan.columns

	res := &Result{Columns: columns}
	e := &oracleEnv{db: db, frames: make([]oracleFrame, 0, len(ordered)), params: params}
	var sortKeys [][]Value

	groups := make(map[string]*oracleGroup)
	var groupOrder []string

	onRow := func() error {
		if aggregated {
			keyVals := make([]Value, len(s.GroupBy))
			for i, g := range s.GroupBy {
				v, err := e.eval(g)
				if err != nil {
					return err
				}
				keyVals[i] = v
			}
			key := groupKey(keyVals)
			grp, ok := groups[key]
			if !ok {
				grp = &oracleGroup{frames: append([]oracleFrame(nil), e.frames...)}
				for _, c := range aggCalls {
					grp.aggs = append(grp.aggs, newAggState(strings.ToLower(c.Name)))
				}
				groups[key] = grp
				groupOrder = append(groupOrder, key)
			}
			for i, c := range aggCalls {
				if _, star := c.Args[0].(*StarExpr); star {
					if err := grp.aggs[i].update(Value{}, true); err != nil {
						return err
					}
					continue
				}
				v, err := e.eval(c.Args[0])
				if err != nil {
					return err
				}
				if err := grp.aggs[i].update(v, false); err != nil {
					return err
				}
			}
			return nil
		}
		out := make([]Value, 0, len(columns))
		for _, item := range s.Exprs {
			if item.Star {
				for _, f := range e.frames {
					out = append(out, f.row...)
				}
				continue
			}
			v, err := e.eval(item.Expr)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
		if len(s.OrderBy) > 0 {
			keys := make([]Value, len(s.OrderBy))
			for i, oi := range s.OrderBy {
				v, err := e.eval(oi.Expr)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		return nil
	}

	var recurse func(level int) error
	recurse = func(level int) error {
		if level == len(ordered) {
			return onRow()
		}
		src := ordered[level]
		for _, row := range src.table.Rows {
			e.frames = append(e.frames, oracleFrame{alias: src.alias, table: src.table, row: row})
			ok := true
			for _, pred := range levelConj[level] {
				v, err := e.eval(pred)
				if err != nil {
					e.frames = e.frames[:len(e.frames)-1]
					return err
				}
				if v.T != TBool {
					e.frames = e.frames[:len(e.frames)-1]
					return fmt.Errorf("sdb: WHERE conjunct is %s, not BOOL", v.T)
				}
				if !v.B {
					ok = false
					break
				}
			}
			if ok {
				if err := recurse(level + 1); err != nil {
					e.frames = e.frames[:len(e.frames)-1]
					return err
				}
			}
			e.frames = e.frames[:len(e.frames)-1]
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}

	if aggregated {
		if len(groupOrder) == 0 && len(s.GroupBy) == 0 {
			grp := &oracleGroup{}
			for _, c := range aggCalls {
				grp.aggs = append(grp.aggs, newAggState(strings.ToLower(c.Name)))
			}
			groups[""] = grp
			groupOrder = append(groupOrder, "")
		}
		for _, key := range groupOrder {
			grp := groups[key]
			genv := &oracleEnv{db: db, frames: grp.frames, params: params}
			aggVals := make([]Value, len(aggCalls))
			for i, a := range grp.aggs {
				aggVals[i] = a.value()
			}
			out := make([]Value, 0, len(columns))
			for _, item := range s.Exprs {
				v, err := genv.evalWithAggregates(item.Expr, aggCalls, aggVals)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			res.Rows = append(res.Rows, out)
			if len(s.OrderBy) > 0 {
				keys := make([]Value, len(s.OrderBy))
				for i, oi := range s.OrderBy {
					v, err := genv.evalWithAggregates(oi.Expr, aggCalls, aggVals)
					if err != nil {
						return nil, err
					}
					keys[i] = v
				}
				sortKeys = append(sortKeys, keys)
			}
		}
	}

	if len(s.OrderBy) > 0 {
		if err := sortRows(res.Rows, sortKeys, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Offset > 0 {
		if s.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[s.Offset:]
		}
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	res.Affected = len(res.Rows)
	return res, nil
}
