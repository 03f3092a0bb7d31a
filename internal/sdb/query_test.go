package sdb

import (
	"errors"
	"strings"
	"testing"

	"qbism/internal/lfm"
)

func queryDB(t *testing.T) *DB {
	t.Helper()
	m, _ := lfm.New(1<<18, 4096)
	db := NewDB(m)
	db.MustExec(`create table t (id int, v int, s string)`)
	db.MustExec(`insert into t values (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x'), (4, 40, 'z')`)
	return db
}

func TestQueryStreamsRows(t *testing.T) {
	db := queryDB(t)
	rows, err := db.Query(`select id, v from t where s = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 2 || got[0] != "t.id" && got[0] != "id" {
		t.Fatalf("columns = %v", got)
	}
	var ids []int64
	for rows.Next() {
		ids = append(ids, rows.Row()[0].I)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	// Exhausted iterator stays exhausted.
	if rows.Next() {
		t.Error("Next after exhaustion returned true")
	}
}

func TestQueryEarlyClose(t *testing.T) {
	db := queryDB(t)
	rows, err := db.Query(`select id from t`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Error("Next after Close returned true")
	}
	if rows.Err() != nil {
		t.Errorf("Err after clean Close: %v", rows.Err())
	}
}

func TestQueryIsLazy(t *testing.T) {
	db := queryDB(t)
	calls := 0
	db.RegisterUDF(&UDF{Name: "traced", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *Call, args []Value) (Value, error) { calls++; return args[0], nil }})
	rows, err := db.Query(`select traced(v) from t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if calls != 0 {
		t.Fatalf("Query evaluated %d projections before Next", calls)
	}
	rows.Next()
	if calls != 1 {
		t.Fatalf("after one Next, %d projections evaluated", calls)
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := queryDB(t)
	if _, err := db.Query(`insert into t values (5, 50, 'w')`); err == nil {
		t.Error("Query accepted INSERT")
	}
	if n := len(db.MustExec(`select id from t`).Rows); n != 4 {
		t.Errorf("%d rows after a refused Query of an INSERT, want 4", n)
	}
	if _, err := db.Query(`explain select id from t`); err == nil {
		t.Error("Query accepted EXPLAIN")
	}
}

func TestBindParameters(t *testing.T) {
	db := queryDB(t)
	res, err := db.Exec(`select id from t where v > ? and s = ?`, Int(15), Str("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// A string argument with quote characters is data, never SQL.
	res, err = db.Exec(`select id from t where s = ?`, Str(`x' or '1'='1`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("injection-shaped bind matched %d rows", len(res.Rows))
	}
}

func TestBindParametersEverywhere(t *testing.T) {
	db := queryDB(t)
	// INSERT accepts binds, in every row of a multi-row VALUES.
	if _, err := db.Exec(`insert into t values (?, ?, ?), (?, ? + 1, 'v')`,
		Int(5), Int(50), Str("w"), Int(6), Int(60)); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec(`select v, s from t where id >= ?`, Int(5))
	if len(res.Rows) != 2 || res.Rows[0][0].I != 50 || res.Rows[0][1].S != "w" || res.Rows[1][0].I != 61 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Binds in the select list.
	res = db.MustExec(`select ? + v from t where id = 1`, Int(100))
	if res.Rows[0][0].I != 110 {
		t.Fatalf("select-list bind = %v", res.Rows[0][0])
	}
}

func TestBindArityChecked(t *testing.T) {
	db := queryDB(t)
	if _, err := db.Exec(`select id from t where v = ?`); err == nil ||
		!strings.Contains(err.Error(), "bind parameter") {
		t.Errorf("missing arg not caught: %v", err)
	}
	if _, err := db.Exec(`select id from t where v = ?`, Int(1), Int(2)); err == nil ||
		!strings.Contains(err.Error(), "bind parameter") {
		t.Errorf("extra arg not caught: %v", err)
	}
	if _, err := db.Query(`select id from t where v = ?`); err == nil {
		t.Error("Query missing arg not caught")
	}
	if _, err := db.Exec(`select id from t`, Int(1)); err == nil {
		t.Error("arg without placeholder not caught")
	}
}

// TestLimitOffsetParseErrors: LIMIT and OFFSET, in any form, are refused
// by the parser with ErrUnsupported — before the catalog is consulted,
// so even a query of a missing table names the clause.
func TestLimitOffsetParseErrors(t *testing.T) {
	db := queryDB(t)
	bad := []string{
		`select id from t limit -1`,
		`select id from t limit x`,
		`select id from t limit 1.5`,
		`select id from t limit`,
		`select id from t offset -2`,
		`select id from t offset y`,
		`select id from t offset`,
		`select id from t limit 2 offset`,
		`select id from t offset 1 limit 2`,
		`select id from t limit ?`,
		`select id from nosuch limit 1`,
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: err %v, want ErrUnsupported", sql, err)
		}
	}
}
