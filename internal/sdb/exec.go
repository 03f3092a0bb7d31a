package sdb

import (
	"fmt"
	"slices"
	"strings"

	"qbism/internal/lfm"
	"qbism/internal/obs"
)

// Result is the output of a statement: column labels and rows. For
// non-SELECT statements Rows is nil and Affected counts inserted rows.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// Exec parses and executes one SQL statement: Prepare and a single
// run, without keeping the statement. Optional args supply values for
// "?" bind placeholders, in order.
func (db *DB) Exec(sql string, args ...Value) (*Result, error) {
	stmt, nparams, err := parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := stmt.(*SelectStmt); ok {
		return materialize(db.queryParsed(db.stmtSpan(nil), stmt, nparams, args))
	}
	c, err := db.compile(stmt, nparams)
	if err != nil {
		return nil, err
	}
	return c.exec(db, args)
}

// MustExec is Exec but panics on error; for loaders and tests.
func (db *DB) MustExec(sql string, args ...Value) *Result {
	res, err := db.Exec(sql, args...)
	if err != nil {
		panic(err)
	}
	return res
}

// exec runs a compiled statement other than a bare SELECT (which runs
// through query) once to completion.
func (c *compiled) exec(db *DB, args []Value) (*Result, error) {
	if err := c.checkArgs(args); err != nil {
		return nil, err
	}
	switch s := c.stmt.(type) {
	case *CreateTableStmt:
		if _, err := db.CreateTable(s.Name, s.Columns); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *InsertStmt:
		return db.execInsert(s, args)
	case *ExplainStmt:
		return c.explain(db, args, s.Analyze)
	default:
		return nil, fmt.Errorf("sdb: unsupported statement %T", c.stmt)
	}
}

// Rows is a streaming SELECT result: call Next until it returns false,
// reading each row with Row, then check Err. Close is idempotent and
// releases operator state early; it is also called automatically when
// Next exhausts the input or hits an error.
type Rows struct {
	cols []string
	// plan owns the operator tree x, which is this iterator's from
	// Stmt.Query until Close hands it back; nil after that.
	plan   *compiled
	x      *execution
	cur    []Value
	err    error
	opened bool
	closed bool
	io     lfm.Stats // x's bill, kept when Close hands x back

	// Tracing state: stmt is the statement span (ended at Close, after
	// the operator tree is emitted under exec); db carries the metrics
	// instruments. The spans are nil/no-op when untraced.
	db   *DB
	stmt *obs.Span
	exec *obs.Span
}

// Columns returns the output column labels.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting whether one is available.
func (r *Rows) Next() bool {
	row, ok := r.advance()
	if ok {
		r.cur = slices.Clone(row)
	}
	return ok
}

// advance is Next without the copy: the row it returns is the
// projection's output buffer, overwritten by the next advance and
// cleared when the tree goes idle.
func (r *Rows) advance() ([]Value, bool) {
	if r.closed || r.err != nil {
		return nil, false
	}
	if !r.opened {
		if err := r.x.root.open(); err != nil {
			r.err = err
			r.Close()
			return nil, false
		}
		r.opened = true
	}
	t, ok, err := r.x.root.next()
	if err != nil {
		r.err = err
		r.Close()
		return nil, false
	}
	if !ok {
		r.Close()
		return nil, false
	}
	return t.out, true
}

// Row returns the current row: a copy the caller may keep, past Close
// and past later executions of the statement.
func (r *Rows) Row() []Value { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the iterator. Rows already read stay valid.
func (r *Rows) Close() error {
	if !r.closed {
		r.closed = true
		r.x.root.close()
		r.finishObs()
		r.io = r.x.io.Stats
		r.plan.release(r.x)
		r.x = nil
	}
	return nil
}

// IO returns what the query's long-field reads cost: the reads its UDFs
// made through Call.IO, counted as they happened and belonging to this
// execution alone. The bill is settled at Close; before it, IO is zero.
func (r *Rows) IO() lfm.Stats { return r.io }

// finishObs completes the query's trace and metrics at Close: the
// operator tree is emitted as spans under the execute span — each
// operator's rowsIn/rowsOut/udfCalls/lfmPages counters become span
// attributes, mirroring EXPLAIN ANALYZE — the execution's per-field
// long-field bill follows as "lfm.read" spans under the statement, and
// the per-operator row counts feed the sdb_operator_rows histogram.
func (r *Rows) finishObs() {
	if r.stmt != nil {
		emitOpSpans(r.exec, r.x.root)
		r.exec.End()
		r.x.io.Spans(r.stmt)
		if r.err != nil {
			r.stmt.SetStr("error", r.err.Error())
		}
		r.stmt.End()
	}
	m := &r.db.m
	m.queries.Inc()
	if r.err != nil {
		m.queryErrors.Inc()
	}
	if m.opRows != nil {
		observeOpRows(m.opRows, r.x.root)
	}
}

// observeOpRows records every operator's output row count.
func observeOpRows(h *obs.Histogram, root operator) {
	eachOp(root, func(op operator) { h.Observe(float64(op.stats().rowsOut)) })
}

// emitOpSpans mirrors the operator tree as child spans of parent, one
// per operator, named by its describe() line with the runtime counters
// attached.
func emitOpSpans(parent *obs.Span, op operator) {
	if parent == nil {
		return
	}
	sp := parent.Child(op.describe())
	st := op.stats()
	sp.SetInt("rowsIn", st.rowsIn)
	sp.SetInt("rowsOut", st.rowsOut)
	sp.SetInt("udfCalls", st.udfCalls)
	sp.SetInt("lfmPages", st.lfmPages)
	sp.SetInt("probes", st.probes)
	left, right := op.kids()
	if left != nil {
		emitOpSpans(sp, left)
	}
	if right != nil {
		emitOpSpans(sp, right)
	}
	sp.End()
}

// Query parses a SELECT and returns a streaming row iterator; rows are
// produced incrementally as the caller pulls them. Optional args bind
// "?" placeholders.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	return db.QuerySpan(nil, sql, args...)
}

// QuerySpan is Query traced under parent: the statement gets a
// "sql.query" span (a child of parent, or a root span when parent is
// nil and the DB has a tracer) with "sql.parse", "sql.plan", and
// "sql.execute" phases; at Close the executed operator tree is emitted
// under the execute span with per-operator counters. A nil parent on
// an untraced DB makes every span a no-op — this is the Query path.
//
// It is Prepare plus one Stmt.Query with the statement thrown away: a
// caller that repeats a statement should keep the Stmt.
func (db *DB) QuerySpan(parent *obs.Span, sql string, args ...Value) (*Rows, error) {
	sp := db.stmtSpan(parent)
	ps := sp.Child("sql.parse")
	stmt, nparams, err := parse(sql)
	ps.End()
	if err != nil {
		return nil, failQuery(sp, err)
	}
	return db.queryParsed(sp, stmt, nparams, args)
}

// queryParsed compiles stmt, of nparams bind arguments, and starts its one
// execution under the statement span sp.
func (db *DB) queryParsed(sp *obs.Span, stmt Statement, nparams int, args []Value) (*Rows, error) {
	pl := sp.Child("sql.plan")
	c, err := db.compile(stmt, nparams)
	rows := new(Rows)
	if err == nil {
		err = c.query(rows, db, sp, args)
	}
	pl.End()
	if err != nil {
		return nil, failQuery(sp, err)
	}
	rows.exec = sp.Child("sql.execute")
	return rows, nil
}

// failQuery closes the statement span of a query that never started,
// and returns err.
func failQuery(sp *obs.Span, err error) error {
	sp.SetStr("error", err.Error())
	sp.End()
	return err
}

// stmtSpan starts the statement span: under parent when given,
// otherwise as a root span of the DB's tracer (nil when untraced).
func (db *DB) stmtSpan(parent *obs.Span) *obs.Span {
	if parent != nil {
		return parent.Child("sql.query")
	}
	return db.tracer.Start("sql.query")
}

// query binds an operator tree of the compiled SELECT to one execution,
// which rows iterates, under the statement span sp (nil = untraced).
// The caller opens the execute span.
func (c *compiled) query(rows *Rows, db *DB, sp *obs.Span, args []Value) error {
	if _, ok := c.stmt.(*SelectStmt); !ok {
		return fmt.Errorf("sdb: Query supports only SELECT, got %T", c.stmt)
	}
	if err := c.checkArgs(args); err != nil {
		return err
	}
	*rows = Rows{cols: c.sel.columns, plan: c, x: c.take(db, args, sp != nil), db: db, stmt: sp}
	return nil
}

// materialize drains a started query into a Result (the non-streaming
// entry points).
func materialize(rows *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// execInsert appends the statement's rows to its table, all of them or
// none: every row is evaluated and coerced before the first is appended,
// so a value that fails leaves the table as it was.
func (db *DB) execInsert(s *InsertStmt, params []Value) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	// Map the column list (or schema order) to positions.
	positions := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, name := range s.Columns {
			idx := t.ColumnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("sdb: table %q has no column %q", t.Name, name)
			}
			positions = append(positions, idx)
		}
	}
	// INSERT values see no row: only literals, bind parameters and
	// function calls evaluate.
	e := db.dmlEnv(params)
	rows := make([][]Value, len(s.Rows))
	for ri, rowExprs := range s.Rows {
		if len(rowExprs) != len(positions) {
			return nil, fmt.Errorf("sdb: INSERT row has %d values, want %d", len(rowExprs), len(positions))
		}
		row := make([]Value, len(t.Columns))
		for i := range row {
			row[i] = Null()
		}
		for i, x := range rowExprs {
			if err := db.bindRowExpr(x); err != nil {
				return nil, err
			}
			v, err := e.eval(x)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		if err := t.coerce(row); err != nil {
			return nil, err
		}
		rows[ri] = row
	}
	t.Rows = append(t.Rows, rows...)
	return &Result{Affected: len(rows)}, nil
}

// dmlEnv is the evaluation context of an INSERT's values, which see no
// row. No execution runs it, so what its UDFs read is billed to an
// account nobody collects.
func (db *DB) dmlEnv(params []Value) *env {
	return &env{db: db, params: params, call: Call{io: &lfm.IO{M: db.lfm}}, stack: &argStack{}}
}

// conjunct is one AND-term of the WHERE clause plus the aliases it
// references, for predicate pushdown.
type conjunct struct {
	expr    Expr
	aliases map[string]bool
}

// source is one bound FROM-clause entry.
type source struct {
	alias string
	table *Table
}

func sources2map(sources []source) map[string]*Table {
	m := make(map[string]*Table, len(sources))
	for _, s := range sources {
		m[strings.ToLower(s.alias)] = s.table
	}
	return m
}

func sources2aliases(sources []source) []string {
	out := make([]string, len(sources))
	for i, s := range sources {
		out[i] = s.alias
	}
	return out
}

// planOrder greedily orders aliases so tables with the most applicable
// conjuncts bind earliest.
func planOrder(aliases []string, conjuncts []conjunct) []string {
	remaining := append([]string(nil), aliases...)
	bound := make(map[string]bool)
	var order []string
	used := make([]bool, len(conjuncts))
	for len(remaining) > 0 {
		bestIdx, bestScore := 0, -1
		for i, a := range remaining {
			la := strings.ToLower(a)
			score := 0
			for ci, c := range conjuncts {
				if used[ci] || !c.aliases[la] {
					continue
				}
				applicable := true
				for ref := range c.aliases {
					if ref != la && !bound[ref] {
						applicable = false
						break
					}
				}
				if applicable {
					score++
				}
			}
			if score > bestScore {
				bestIdx, bestScore = i, score
			}
		}
		chosen := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		lc := strings.ToLower(chosen)
		bound[lc] = true
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			all := true
			for ref := range c.aliases {
				if !bound[ref] {
					all = false
					break
				}
			}
			if all {
				used[ci] = true
			}
		}
		order = append(order, chosen)
	}
	return order
}

// splitConjuncts flattens top-level ANDs.
func splitConjuncts(x Expr) []Expr {
	if b, ok := x.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{x}
}

// resolveColumns fills in the Qualifier of unqualified column references
// when the column name is unique across the FROM tables, and validates
// qualified references.
func resolveColumns(x Expr, tables map[string]*Table) error {
	switch n := x.(type) {
	case *ColumnRef:
		if n.Qualifier != "" {
			t, ok := tables[strings.ToLower(n.Qualifier)]
			if !ok {
				return fmt.Errorf("sdb: unknown table alias %q", n.Qualifier)
			}
			if t.ColumnIndex(n.Name) < 0 {
				return fmt.Errorf("sdb: table %q has no column %q", n.Qualifier, n.Name)
			}
			return nil
		}
		var owner string
		for alias, t := range tables {
			if t.ColumnIndex(n.Name) >= 0 {
				if owner != "" {
					return fmt.Errorf("sdb: ambiguous column %q", n.Name)
				}
				owner = alias
			}
		}
		if owner == "" {
			return fmt.Errorf("sdb: unknown column %q", n.Name)
		}
		n.Qualifier = owner
		return nil
	case *BinaryExpr:
		if err := resolveColumns(n.Left, tables); err != nil {
			return err
		}
		return resolveColumns(n.Right, tables)
	case *UnaryExpr:
		return resolveColumns(n.X, tables)
	case *FuncCall:
		for _, a := range n.Args {
			if err := resolveColumns(a, tables); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// exprAliases collects the (lowercased) table aliases an expression
// references; call after resolveColumns.
func exprAliases(x Expr) map[string]bool {
	out := make(map[string]bool)
	walkExpr(x, func(e Expr) {
		if n, ok := e.(*ColumnRef); ok && n.Qualifier != "" {
			out[strings.ToLower(n.Qualifier)] = true
		}
	})
	return out
}

// exprLabel produces a display label for a select-list expression.
func exprLabel(x Expr) string {
	switch n := x.(type) {
	case *ColumnRef:
		if n.Qualifier != "" {
			return n.Qualifier + "." + n.Name
		}
		return n.Name
	case *FuncCall:
		return n.Name
	case *Literal:
		return n.Val.String()
	default:
		return "expr"
	}
}
