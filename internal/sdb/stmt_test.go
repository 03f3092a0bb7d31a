package sdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// planLines joins the lines of an EXPLAIN result (prepared or one-shot).
func planLines(t *testing.T, res *Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = row[0].S
	}
	return strings.Join(lines, "\n")
}

// TestPreparedInvalidation: every catalog change a plan depends on
// re-plans a prepared statement before its next execution, so it
// returns the rows — and, prepared as an EXPLAIN, the plan text — a
// fresh one-shot would.
func TestPreparedInvalidation(t *testing.T) {
	const query = `select r.id, q.u from r, q where r.id = q.id and heavy(r.v) > 3 and dbl(r.v) > 2`
	cases := []struct {
		name   string
		change func(db *DB)
		// replanned: the plan text must differ from the one prepared
		// before the change, showing the old plan was not reused.
		replanned bool
		// newRows: the change alters the result, so the prepared
		// statement's rows show which catalog it ran against.
		newRows bool
	}{
		{"CreateTable", func(db *DB) {
			db.MustExec(`create table extra (a int)`)
		}, false, false},
		{"RegisterUDF", func(db *DB) {
			// The plan binds each call to its function, so only a
			// re-plan runs the new dbl, which filters every row out.
			db.RegisterUDF(&UDF{Name: "dbl", MinArgs: 1, MaxArgs: 1,
				Fn: func(_ *Call, args []Value) (Value, error) { return Int(0), nil }})
		}, false, true},
		{"SetPushdown(false)", func(db *DB) { db.SetPushdown(false) }, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := fuzzEquivDB()
			sel, err := db.Prepare(query)
			if err != nil {
				t.Fatal(err)
			}
			expl, err := db.Prepare("explain " + query)
			if err != nil {
				t.Fatal(err)
			}
			before := drain(sel.Query(nil))
			res, err := expl.Exec()
			planBefore := planLines(t, res, err)
			gen := sel.plan.Load().gen

			tc.change(db)

			res, err = expl.Exec()
			planAfter := planLines(t, res, err)
			res, err = db.Exec("explain " + query)
			if fresh := planLines(t, res, err); planAfter != fresh {
				t.Errorf("prepared EXPLAIN after the change:\n%s\nfresh one-shot:\n%s", planAfter, fresh)
			}
			if tc.replanned == (planAfter == planBefore) {
				t.Errorf("replanned = %v, but plan before:\n%s\nafter:\n%s", tc.replanned, planBefore, planAfter)
			}
			after := drain(sel.Query(nil))
			if fresh := drain(db.Query(query)); !after.equal(fresh) || after.err {
				t.Errorf("prepared rows after the change %q, fresh one-shot %q", rowsKey(after.rows), rowsKey(fresh.rows))
			}
			if tc.newRows == after.equal(before) {
				t.Errorf("newRows = %v, but the rows went from %q to %q", tc.newRows, rowsKey(before.rows), rowsKey(after.rows))
			}
			if sel.plan.Load().gen == gen {
				t.Error("the statement still carries its pre-change plan")
			}
			// Nothing changed since: the next execution reuses the plan.
			p := sel.plan.Load()
			drain(sel.Query(nil))
			if sel.plan.Load() != p {
				t.Error("re-planned with no catalog change")
			}
		})
	}
}

func TestPreparedArity(t *testing.T) {
	db := fuzzEquivDB()
	stmt, err := db.Prepare(`select id from r where v = ? and w = ?`)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sdb: statement has 2 bind parameter(s), got 1 argument(s)"
	if _, err := stmt.Query(nil, Int(1)); err == nil || err.Error() != want {
		t.Errorf("Stmt.Query arity error = %v, want %q", err, want)
	}
	if _, err := stmt.Exec(Int(1)); err == nil || err.Error() != want {
		t.Errorf("Stmt.Exec arity error = %v, want %q", err, want)
	}
	if _, err := db.Query(`select id from r where v = ? and w = ?`, Int(1)); err == nil || err.Error() != want {
		t.Errorf("DB.Query arity error = %v, want %q", err, want)
	}
	if got := drain(stmt.Query(nil, Int(3), Int(1))); got.err {
		t.Error("correctly bound execution failed after the arity errors")
	}
	if _, err := db.Prepare(`select nosuch from r`); err == nil {
		t.Error("Prepare accepted an unknown column")
	}
	ins, err := db.Prepare(`insert into p values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Query(nil, Int(1), Int(2)); err == nil || !strings.Contains(err.Error(), "Query supports only SELECT") {
		t.Errorf("Stmt.Query on an INSERT = %v", err)
	}
	if res, err := ins.Exec(Int(9), Int(9)); err != nil || res.Affected != 1 {
		t.Errorf("prepared INSERT = %+v, %v", res, err)
	}
}

// TestHashJoinKeys pins the hash join's key semantics on the 64-bit
// bucket hash: keys that collide into one bucket are told apart by the
// Equal re-check, numerically equal INT and FLOAT keys meet, and NULL
// keys match nothing.
func TestHashJoinKeys(t *testing.T) {
	db := NewDB(nil)
	db.MustExec(`create table a (k int, tag string)`)
	db.MustExec(`create table b (k int, tag string)`)
	const n = 1000
	for i := 0; i < n; i++ {
		// Distinct keys, spread out so they are not consecutive bit patterns.
		db.InsertRow("a", []Value{Int(int64(i * 7919)), Str(fmt.Sprintf("a%d", i))})
		db.InsertRow("b", []Value{Int(int64(i * 7919)), Str(fmt.Sprintf("b%d", i))})
	}
	// The build side's table has 2048 bucket heads for 1000 entries, so
	// many distinct keys share a bucket; make sure this data has such a
	// pair before relying on it.
	seen := make(map[uint64]bool)
	collisions := 0
	for i := 0; i < n; i++ {
		b := hashValues([]Value{Int(int64(i * 7919))}) & 2047
		if seen[b] {
			collisions++
		}
		seen[b] = true
	}
	if collisions == 0 {
		t.Fatal("no two keys share a bucket — the collision path is not exercised")
	}
	res := db.MustExec(`select a.tag, b.tag from a, b where a.k = b.k`)
	plan := planText(t, db, `explain select a.tag, b.tag from a, b where a.k = b.k`)
	if !strings.Contains(plan, "hash join on") {
		t.Fatalf("not a hash join:\n%s", plan)
	}
	if len(res.Rows) != n {
		t.Fatalf("%d joined rows with %d colliding keys, want %d", len(res.Rows), collisions, n)
	}
	for i, row := range res.Rows {
		if row[0].S != fmt.Sprintf("a%d", i) || row[1].S != fmt.Sprintf("b%d", i) {
			t.Fatalf("row %d pairs %s with %s", i, row[0].S, row[1].S)
		}
	}

	db.MustExec(`create table ints (k int)`)
	db.MustExec(`create table floats (k float)`)
	db.MustExec(`insert into ints values (1), (0), (null), (7)`)
	db.InsertRow("floats", []Value{Float(1.0)})
	db.InsertRow("floats", []Value{Float(math.Copysign(0, -1))})
	db.InsertRow("floats", []Value{Null()})
	db.InsertRow("floats", []Value{Float(7.5)})
	res = db.MustExec(`select ints.k, floats.k from ints, floats where ints.k = floats.k`)
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].String()+"="+row[1].String())
	}
	// 1 = 1.0 and 0 = -0.0 join; NULL = NULL does not; 7 ≠ 7.5.
	if want := "1=1 0=-0"; strings.Join(got, " ") != want {
		t.Errorf("int/float/NULL join produced %q, want %q", strings.Join(got, " "), want)
	}
	if h1, h2 := hashValues([]Value{Int(1)}), hashValues([]Value{Float(1)}); h1 != h2 {
		t.Error("1 and 1.0 hash differently but compare equal")
	}
	if h1, h2 := hashValues([]Value{Str("1")}), hashValues([]Value{Int(1)}); h1 == h2 {
		t.Error("'1' and 1 share a hash: type classes are not tagged")
	}
}
