package sdb

import (
	"fmt"
	"sync/atomic"

	"qbism/internal/obs"
)

// Prepared statements. A server issues the same few statement shapes on
// every request; Prepare does the per-text work — lex, parse, column
// resolution, conjunct split, join order, plan tree, binding of every
// column reference to its tuple slot and every call to its UDF — once,
// and each execution only instantiates operators over the shared plan.

// compiled is a statement ready to run against the catalog as it stood
// at generation gen. It is immutable once built, AST included, so
// concurrent executions share it freely.
type compiled struct {
	gen     uint64
	stmt    Statement
	nparams int
	// sel is the plan of a SELECT or of the SELECT under an EXPLAIN. It
	// is nil for DDL and DML, which bind their expressions as they run:
	// they mutate tables, so they were never safe to run concurrently.
	sel *selectPlan
}

// compile validates and plans a parsed statement, binding its AST in
// place.
func (db *DB) compile(stmt Statement) (*compiled, error) {
	c := &compiled{gen: db.gen.Load(), stmt: stmt, nparams: countPlaceholders(stmt)}
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
// Executions already running finish on the plan they started with.
type Stmt struct {
	db   *DB
	sql  string
	plan atomic.Pointer[compiled]
}

// Prepare parses, validates and plans one SQL statement for repeated
// execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	c, err := db.compile(stmt)
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
	stmt, err := Parse(s.sql)
	if err != nil {
		return nil, err
	}
	if c, err = s.db.compile(stmt); err != nil {
		return nil, err
	}
	s.plan.Store(c)
	return c, nil
}

// Query starts one execution of a prepared SELECT with args bound to
// its "?" placeholders, traced under parent exactly as QuerySpan traces
// (nil parent on an untraced DB = no spans). The "sql.parse" phase of a
// prepared execution covers fetching the compiled plan — a pointer load
// unless the catalog moved — and "sql.plan" instantiating its
// operators.
func (s *Stmt) Query(parent *obs.Span, args ...Value) (*Rows, error) {
	sp := s.db.stmtSpan(parent)
	ps := sp.Child("sql.parse")
	c, err := s.current()
	ps.End()
	if err != nil {
		return failQuery(sp, err)
	}
	pl := sp.Child("sql.plan")
	rows, err := c.query(s.db, sp, args)
	pl.End()
	if err != nil {
		return failQuery(sp, err)
	}
	rows.exec = sp.Child("sql.execute")
	return rows, nil
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
