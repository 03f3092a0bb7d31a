package sdb

import (
	"fmt"
	"strings"
)

// EXPLAIN support: `EXPLAIN SELECT ...` returns the physical operator
// tree as indented text rows instead of executing — the visibility
// hook for join ordering and predicate pushdown. Filters that run
// below the top of the join tree are annotated [pushed], which is how
// the qbism tests assert that spatial predicates filter rows before
// long-field extraction. `EXPLAIN ANALYZE SELECT ...` executes the
// query first and appends each operator's runtime counters: rows
// in/out, UDF calls, and LFM pages read by its expressions.

// ExplainStmt wraps a statement to be explained rather than executed.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// explain renders the operator tree of the compiled SELECT, executing
// it first when analyze is set.
func (c *compiled) explain(db *DB, params []Value, analyze bool) (*Result, error) {
	x := c.take(db, params, false)
	defer c.release(x)
	root := x.root
	if analyze {
		err := root.open()
		for more := err == nil; more; {
			_, more, err = root.next()
		}
		root.close()
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Columns: []string{"plan"}}
	var walk func(op operator, depth int)
	walk = func(op operator, depth int) {
		line := strings.Repeat("  ", depth) + op.describe()
		if analyze {
			st := op.stats()
			line += fmt.Sprintf(" [in=%d out=%d udf=%d pages=%d probe=%d]",
				st.rowsIn, st.rowsOut, st.udfCalls, st.lfmPages, st.probes)
		}
		res.Rows = append(res.Rows, []Value{Str(line)})
		left, right := op.kids()
		if left != nil {
			walk(left, depth+1)
		}
		if right != nil {
			walk(right, depth+1)
		}
	}
	walk(root, 0)
	res.Affected = len(res.Rows)
	return res, nil
}

// exprString renders an expression for plan display.
func exprString(x Expr) string {
	switch n := x.(type) {
	case *Literal:
		if n.Val.T == TString {
			return "'" + strings.ReplaceAll(n.Val.S, "'", "''") + "'"
		}
		return n.Val.String()
	case *Placeholder:
		return "?"
	case *ColumnRef:
		if n.Qualifier != "" {
			return n.Qualifier + "." + n.Name
		}
		return n.Name
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", exprString(n.Left), n.Op, exprString(n.Right))
	case *UnaryExpr:
		if n.Op == "NOT" {
			return "NOT " + exprString(n.X)
		}
		return n.Op + exprString(n.X)
	case *FuncCall:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = exprString(a)
		}
		return n.Name + "(" + strings.Join(args, ", ") + ")"
	default:
		return "?"
	}
}
