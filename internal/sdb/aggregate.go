package sdb

import (
	"fmt"
	"strings"
)

// Built-in aggregate functions: COUNT, SUM, AVG, MIN, MAX. Aggregates
// are recognized by name in SELECT/ORDER BY expressions and take
// precedence over UDFs of the same name. GROUP BY semantics are
// permissive (as in classic systems): a non-aggregated expression in the
// select list is evaluated against the first row of each group.

// aggregateNames is the set of built-in aggregate function names.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// isAggregateCall reports whether x is a call to a built-in aggregate.
func isAggregateCall(x Expr) (*FuncCall, bool) {
	fc, ok := x.(*FuncCall)
	if !ok || !aggregateNames[strings.ToLower(fc.Name)] {
		return nil, false
	}
	return fc, true
}

// collectAggregates appends every aggregate call within x to out,
// erroring on nested aggregates.
func collectAggregates(x Expr, out *[]*FuncCall, insideAgg bool) error {
	switch n := x.(type) {
	case *FuncCall:
		if _, ok := isAggregateCall(n); ok {
			if insideAgg {
				return fmt.Errorf("sdb: nested aggregate %q", n.Name)
			}
			if len(n.Args) != 1 {
				return fmt.Errorf("sdb: aggregate %q takes exactly one argument", n.Name)
			}
			*out = append(*out, n)
			return collectAggregates(n.Args[0], out, true)
		}
		for _, a := range n.Args {
			if err := collectAggregates(a, out, insideAgg); err != nil {
				return err
			}
		}
	case *BinaryExpr:
		if err := collectAggregates(n.Left, out, insideAgg); err != nil {
			return err
		}
		return collectAggregates(n.Right, out, insideAgg)
	case *UnaryExpr:
		return collectAggregates(n.X, out, insideAgg)
	case *StarExpr:
		if !insideAgg {
			return fmt.Errorf("sdb: * is only valid inside COUNT(*)")
		}
	}
	return nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	fn     string // lowercased aggregate name
	count  int64
	sumI   int64
	sumF   float64
	allInt bool
	minV   Value
	maxV   Value
	seen   bool
}

func newAggState(fn string) *aggState {
	return &aggState{fn: fn, allInt: true}
}

// update folds one row's argument value into the state. NULLs are
// ignored, as in SQL.
func (a *aggState) update(v Value, isStar bool) error {
	if isStar {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	a.count++
	switch a.fn {
	case "count":
		return nil
	case "sum", "avg":
		switch v.T {
		case TInt:
			a.sumI += v.I
			a.sumF += float64(v.I)
		case TFloat:
			a.allInt = false
			a.sumF += v.F
		default:
			return fmt.Errorf("sdb: %s over %s values", strings.ToUpper(a.fn), v.T)
		}
		return nil
	case "min", "max":
		if !a.seen {
			a.minV, a.maxV, a.seen = v, v, true
			return nil
		}
		less, err := v.Less(a.minV)
		if err != nil {
			return fmt.Errorf("sdb: %s: %v", strings.ToUpper(a.fn), err)
		}
		if less {
			a.minV = v
		}
		more, err := a.maxV.Less(v)
		if err != nil {
			return err
		}
		if more {
			a.maxV = v
		}
		return nil
	default:
		return fmt.Errorf("sdb: unknown aggregate %q", a.fn)
	}
}

// value returns the final aggregate value.
func (a *aggState) value() Value {
	switch a.fn {
	case "count":
		return Int(a.count)
	case "sum":
		if a.count == 0 {
			return Null()
		}
		if a.allInt {
			return Int(a.sumI)
		}
		return Float(a.sumF)
	case "avg":
		if a.count == 0 {
			return Null()
		}
		return Float(a.sumF / float64(a.count))
	case "min":
		if !a.seen {
			return Null()
		}
		return a.minV
	case "max":
		if !a.seen {
			return Null()
		}
		return a.maxV
	default:
		return Null()
	}
}

// group accumulates one GROUP BY bucket.
type group struct {
	rows [][]Value   // copy of the first input tuple's rows
	aggs []*aggState // parallel to the query's aggregate call list
}

// groupKey builds a canonical key from the group-by values.
func groupKey(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteByte(byte(v.T))
		sb.WriteString(v.String())
		sb.WriteByte(0)
	}
	return sb.String()
}
