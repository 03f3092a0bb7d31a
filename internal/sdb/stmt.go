package sdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qbism/internal/lfm"
	"qbism/internal/obs"
)

// Prepared statements. A server issues the same few statement shapes on
// every request; Prepare does the per-text work — lex, parse, column
// resolution, conjunct split, join order, plan tree, binding of every
// column reference to its tuple slot and every call to its UDF — once,
// and an execution re-binds an operator tree an earlier one built.

// compiled is a statement ready to run against the catalog as it stood
// at generation gen. The plan is immutable once built, AST included, so
// concurrent executions share it freely; each runs on an operator tree
// of its own.
type compiled struct {
	gen     uint64
	stmt    Statement
	nparams int
	// sel is the plan of a SELECT or of the SELECT under an EXPLAIN. It
	// is nil for CREATE TABLE and INSERT, which bind their expressions
	// as they run: they change the catalog, so they were never safe to
	// run concurrently.
	sel *selectPlan

	// mu is a leaf lock: held only to push or pop idle, never across
	// instantiate, an operator call or a UDF.
	mu sync.Mutex
	// idle are the operator trees no execution is running, at most as
	// many as have ever run at once: bounded, though it never shrinks.
	// In a daemon transport.ServerConfig.MaxConns (64 by default) caps
	// that peak, as a connection serves one request at a time and a
	// request runs its statements one after another. They belong to this
	// plan: a re-plan starts an empty list and these go with the old
	// compiled.
	// Deliberately not a sync.Pool, which the collector empties: what
	// an execution allocates must not depend on GC timing.
	idle []*execution // guarded by mu
}

// take returns an operator tree nobody else is running, bound to args:
// an idle one if there is one, otherwise a new one. A traced run bills
// its long-field reads per field as well.
func (c *compiled) take(db *DB, args []Value, traced bool) *execution {
	var x *execution
	c.mu.Lock()
	if n := len(c.idle) - 1; n >= 0 {
		x = c.idle[n]
		c.idle[n] = nil // a Rows never closed must not keep its tree reachable from here
		c.idle = c.idle[:n]
	}
	c.mu.Unlock()
	if x == nil {
		x = c.sel.instantiate(db, c.nparams)
	}
	copy(x.params, args)
	x.io.PerHandle = traced
	return x
}

// release makes x, whose operators are closed (or were never opened),
// available to the next execution.
func (c *compiled) release(x *execution) {
	x.clear()
	c.mu.Lock()
	c.idle = append(c.idle, x)
	c.mu.Unlock()
}

// Reserve builds operator trees for the statement until n are idle, so
// that n executions can run at once without building one. Otherwise a
// tree is built the first time that many run together, and kept: a
// caller counting what steady-state executions allocate reserves first.
// The new trees are taken first (take pops the newest), so the next
// executions grow what they keep while the trees that ran before wait,
// already grown, for the first overlap. CREATE TABLE and INSERT keep
// no trees; Reserve does nothing for them.
func (s *Stmt) Reserve(n int) error {
	c, err := s.current()
	if err != nil || c.sel == nil {
		return err
	}
	for {
		c.mu.Lock()
		short := len(c.idle) < n
		c.mu.Unlock()
		if !short {
			return nil
		}
		c.release(c.sel.instantiate(s.db, c.nparams))
	}
}

// compile validates and plans a parsed statement of nparams bind
// arguments, binding its AST in place.
func (db *DB) compile(stmt Statement, nparams int) (*compiled, error) {
	c := &compiled{gen: db.gen.Load(), stmt: stmt, nparams: nparams}
	sel, _ := stmt.(*SelectStmt)
	if ex, ok := stmt.(*ExplainStmt); ok {
		if sel, ok = ex.Stmt.(*SelectStmt); !ok {
			return nil, fmt.Errorf("sdb: EXPLAIN supports only SELECT")
		}
	}
	if sel != nil {
		plan, err := db.planSelect(sel)
		if err != nil {
			return nil, err
		}
		c.sel = plan
	}
	return c, nil
}

func (c *compiled) checkArgs(args []Value) error {
	if c.nparams != len(args) {
		return fmt.Errorf("sdb: statement has %d bind parameter(s), got %d argument(s)", c.nparams, len(args))
	}
	return nil
}

// Stmt is a prepared statement. It is safe for concurrent use by
// multiple goroutines, to the same extent the database is: any number
// of Query calls may run at once, but not alongside catalog changes or
// writes to the tables they read.
//
// A Stmt never goes stale: CreateTable, RegisterUDF and SetPushdown
// advance the catalog generation, and the first execution after one
// re-plans the statement from its text and swaps the new plan in.
// Executions already running finish on the plan they started with, and
// their operator trees are dropped with it.
type Stmt struct {
	db   *DB
	sql  string
	plan atomic.Pointer[compiled]
}

// Prepare parses, validates and plans one SQL statement for repeated
// execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	stmt, nparams, err := parse(sql)
	if err != nil {
		return nil, err
	}
	c, err := db.compile(stmt, nparams)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, sql: sql}
	s.plan.Store(c)
	return s, nil
}

// current returns the compiled statement, re-planned first if the
// catalog changed since it was compiled. The re-plan parses the text
// again rather than re-binding the shared AST, which running
// executions are still reading.
func (s *Stmt) current() (*compiled, error) {
	c := s.plan.Load()
	if c.gen == s.db.gen.Load() {
		return c, nil
	}
	stmt, nparams, err := parse(s.sql)
	if err != nil {
		return nil, err
	}
	if c, err = s.db.compile(stmt, nparams); err != nil {
		return nil, err
	}
	s.plan.Store(c)
	return c, nil
}

// Query starts one execution of a prepared SELECT with args bound to
// its "?" placeholders, traced under parent exactly as QuerySpan traces
// (nil parent on an untraced DB = no spans). The "sql.parse" phase of a
// prepared execution covers fetching the compiled plan — a pointer load
// unless the catalog moved — and "sql.plan" taking (or, with none idle,
// building) an operator tree and binding args to it. args is copied,
// not kept.
func (s *Stmt) Query(parent *obs.Span, args ...Value) (*Rows, error) {
	rows := new(Rows)
	if err := s.start(rows, parent, args); err != nil {
		return nil, err
	}
	return rows, nil
}

// QueryRow runs a prepared SELECT that should yield one row. The first
// row is copied into dst, which must hold one value per column, and n
// counts the rows found, stopping at two: one row too many is as wrong
// as a thousand, and stopping keeps the executor from finishing a
// mistaken cross product. bill is what the execution read (Rows.IO of
// the same run) and err what Rows.Err would report; the run is traced
// under parent as Query traces it. Its Rows lives on this call's stack
// and the row goes straight from the projection into dst, so a run on a
// retained operator tree allocates nothing here.
func (s *Stmt) QueryRow(parent *obs.Span, dst []Value, args ...Value) (n int, bill lfm.Stats, err error) {
	var rows Rows
	if err := s.start(&rows, parent, args); err != nil {
		return 0, lfm.Stats{}, err
	}
	if len(dst) != len(rows.cols) {
		rows.err = fmt.Errorf("sdb: QueryRow into %d values, statement has %d columns", len(dst), len(rows.cols))
	}
	for n < 2 {
		row, ok := rows.advance()
		if !ok {
			break
		}
		if n == 0 {
			copy(dst, row)
		}
		n++
	}
	rows.Close()
	return n, rows.io, rows.err
}

// start is Query into rows.
func (s *Stmt) start(rows *Rows, parent *obs.Span, args []Value) error {
	sp := s.db.stmtSpan(parent)
	ps := sp.Child("sql.parse")
	c, err := s.current()
	ps.End()
	if err != nil {
		return failQuery(sp, err)
	}
	pl := sp.Child("sql.plan")
	err = c.query(rows, s.db, sp, args)
	pl.End()
	if err != nil {
		return failQuery(sp, err)
	}
	rows.exec = sp.Child("sql.execute")
	return nil
}

// Exec runs the prepared statement once to completion; a SELECT is
// materialized.
func (s *Stmt) Exec(args ...Value) (*Result, error) {
	// What kind of statement the text is survives every re-plan.
	if _, ok := s.plan.Load().stmt.(*SelectStmt); ok {
		return materialize(s.Query(nil, args...))
	}
	c, err := s.current()
	if err != nil {
		return nil, err
	}
	return c.exec(s.db, args)
}
