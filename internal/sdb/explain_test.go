package sdb

import (
	"strings"
	"testing"

	"qbism/internal/lfm"
)

func explainDB(t *testing.T) *DB {
	t.Helper()
	m, _ := lfm.New(1<<18, 4096)
	db := NewDB(m)
	db.MustExec(`create table a (id int, v int)`)
	db.MustExec(`create table b (id int, w int)`)
	db.MustExec(`insert into a values (1, 10), (2, 20)`)
	db.MustExec(`insert into b values (1, 100)`)
	return db
}

func planText(t *testing.T, db *DB, sql string) string {
	t.Helper()
	res := db.MustExec(sql)
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExplainShowsJoinOrderAndPushdown(t *testing.T) {
	db := explainDB(t)
	plan := planText(t, db, `explain select a.v from a, b where a.id = b.id and b.w = 100`)
	// b has the single-table filter, so it scans first (leftmost).
	bLevel := strings.Index(plan, "scan b")
	aLevel := strings.Index(plan, "scan a")
	if bLevel < 0 || aLevel < 0 || bLevel > aLevel {
		t.Errorf("join order wrong:\n%s", plan)
	}
	// The single-table filter is pushed below the join, onto b's scan.
	if !strings.Contains(plan, "filter (b.w = 100) [pushed]") {
		t.Errorf("pushdown filter missing:\n%s", plan)
	}
	// The equality conjunct becomes a hash join key.
	if !strings.Contains(plan, "hash join on b.id = a.id") {
		t.Errorf("hash join missing:\n%s", plan)
	}
	if !strings.Contains(plan, "project [a.v]") {
		t.Errorf("project root missing:\n%s", plan)
	}
}

func TestExplainNestedLoopFallback(t *testing.T) {
	db := explainDB(t)
	plan := planText(t, db, `explain select a.v from a, b where a.id < b.w`)
	if !strings.Contains(plan, "nested loop join") {
		t.Errorf("nested loop missing:\n%s", plan)
	}
	// The inequality cannot be a hash key; it filters above the join and
	// covers every table, so it is not annotated as pushed.
	if !strings.Contains(plan, "filter (a.id < b.w)") || strings.Contains(plan, "(a.id < b.w) [pushed]") {
		t.Errorf("residual filter wrong:\n%s", plan)
	}
}

func TestExplainAnalyzeCounters(t *testing.T) {
	db := explainDB(t)
	plan := planText(t, db, `explain analyze select a.v from a, b where a.id = b.id and b.w = 100`)
	if !strings.Contains(plan, "scan a (2 rows) [in=0 out=2") {
		t.Errorf("scan counters missing:\n%s", plan)
	}
	// One of a's two rows joins b's single row.
	if !strings.Contains(plan, "project [a.v] [in=1 out=1") {
		t.Errorf("project counters missing:\n%s", plan)
	}
}

func TestExplainPushdownDisabled(t *testing.T) {
	db := explainDB(t)
	db.SetPushdown(false)
	plan := planText(t, db, `explain select a.v from a, b where a.id = b.id and b.w = 100`)
	if strings.Contains(plan, "hash join") || strings.Contains(plan, "[pushed]") {
		t.Errorf("pushdown-off plan still optimized:\n%s", plan)
	}
	// FROM order preserved: a scans first.
	if a, b := strings.Index(plan, "scan a"), strings.Index(plan, "scan b"); a < 0 || b < 0 || a > b {
		t.Errorf("pushdown-off join order wrong:\n%s", plan)
	}
	if !strings.Contains(plan, "filter (a.id = b.id) and (b.w = 100)") {
		t.Errorf("monolithic top filter missing:\n%s", plan)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainDB(t)
	if _, err := db.Exec(`explain insert into a values (3, 30)`); err == nil {
		t.Error("EXPLAIN INSERT accepted")
	}
	if _, err := db.Exec(`explain select nosuch from a`); err == nil {
		t.Error("EXPLAIN of invalid query accepted")
	}
	if _, err := db.Exec(`explain`); err == nil {
		t.Error("bare EXPLAIN accepted")
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	db := explainDB(t)
	calls := 0
	db.RegisterUDF(&UDF{Name: "traced", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *Call, args []Value) (Value, error) { calls++; return args[0], nil }})
	before := len(db.MustExec(`select * from a`).Rows)
	db.MustExec(`explain select v from a where traced(v) > 0`)
	after := len(db.MustExec(`select * from a`).Rows)
	if before != after {
		t.Error("EXPLAIN mutated data")
	}
	if calls != 0 {
		t.Errorf("EXPLAIN executed the query (%d UDF calls)", calls)
	}
	db.MustExec(`explain analyze select v from a where traced(v) > 0`)
	if calls == 0 {
		t.Error("EXPLAIN ANALYZE did not execute the query")
	}
}

func TestExprString(t *testing.T) {
	stmt, err := Parse(`select not v, -v, v + 1, f(v, '*it''s*'), count(v), ? from a where v <> 2`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	got := make([]string, len(sel.Exprs))
	for i, item := range sel.Exprs {
		got[i] = exprString(item.Expr)
	}
	want := []string{"NOT v", "-v", "(v + 1)", "f(v, '*it''s*')", "count(v)", "?"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("exprString[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if exprString(sel.Where) != "(v <> 2)" {
		t.Errorf("where = %q", exprString(sel.Where))
	}
}
