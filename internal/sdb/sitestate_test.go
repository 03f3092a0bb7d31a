package sdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qbism/internal/obs"
)

// cell is the call-site state of the test UDFs below: g(x) stores x in
// its site's cell and returns an Object that reads it from there.
type cell struct {
	v   Value
	obj cellObj
}

func (c *cell) Reset() { *c = cell{} }

// cellObj is the Object g returns: a pointer into g's site state.
type cellObj struct{ c *cell }

func (o *cellObj) Encode() ([]byte, error) { return []byte(o.c.v.String()), nil }

// cellDB is retainDB with g(x), which keeps x in its call site's state
// (a new cell outside an execution) and returns an Object pointing at
// it; f(o), which reads it back times 10; and f2(o1, o2), which reads
// two. made counts the cells g's State hook made, dml the calls g got
// with no state.
func cellDB(t *testing.T) (db *DB, made, dml *int) {
	t.Helper()
	db = retainDB(t)
	made, dml = new(int), new(int)
	read := func(v Value) (int64, error) {
		o, ok := v.O.(*cellObj)
		if v.T != TObject || !ok {
			return 0, fmt.Errorf("not a cell: %s", v.T)
		}
		return o.c.v.I, nil
	}
	for _, u := range []*UDF{
		{Name: "g", MinArgs: 1, MaxArgs: 1,
			State: func() SiteState { *made++; return new(cell) },
			Fn: func(call *Call, args []Value) (Value, error) {
				c, _ := call.State().(*cell)
				if c == nil {
					*dml++
					c = new(cell)
				}
				c.v = args[0]
				c.obj = cellObj{c}
				return Obj(&c.obj), nil
			}},
		{Name: "f", MinArgs: 1, MaxArgs: 1, Fn: func(_ *Call, args []Value) (Value, error) {
			v, err := read(args[0])
			return Int(10 * v), err
		}},
		{Name: "f2", MinArgs: 2, MaxArgs: 2, Fn: func(_ *Call, args []Value) (Value, error) {
			a, err := read(args[0])
			if err != nil {
				return Value{}, err
			}
			b, err := read(args[1])
			return Int(1000*a + b), err
		}},
	} {
		if err := db.RegisterUDF(u); err != nil {
			t.Fatal(err)
		}
	}
	return db, made, dml
}

// TestCallSiteStateLifetime: a multi-row statement whose Objects point
// into their call sites' state gives, execution after execution on one
// retained tree, the rows a one-shot execution gives — each row's
// Object is consumed before its site runs again, and two calls of one
// function are two sites with a state each. The states are made once
// per site and tree; outside an execution a function has none.
func TestCallSiteStateLifetime(t *testing.T) {
	db, made, dml := cellDB(t)
	const query = `select l.id, f(g(l.id)), f2(g(l.id), g(l.id + 10)) from l
		where f(g(l.id)) > 10 order by l.id`
	const want = "2,20,2012 3,30,3013 4,40,4014"
	oneShot := drain(db.Query(query))
	if oneShot.err || len(oneShot.rows) != 3 {
		t.Fatalf("one-shot execution: %d rows, err %v", len(oneShot.rows), oneShot.err)
	}
	stmt := mustPrepare(t, db, query)
	*made = 0
	for run := 0; run < 3; run++ {
		if got := runKey(t, stmt); got != want {
			t.Errorf("run %d on the retained tree: %q, want %q", run, got, want)
		}
		if got := drain(stmt.Query(nil)); rowsKey(got.rows) != rowsKey(oneShot.rows) {
			t.Errorf("run %d differs from the one-shot execution", run)
		}
	}
	if n := len(idleTrees(stmt)); n != 1 {
		t.Fatalf("%d idle trees, want 1", n)
	}
	if *made != 4 {
		t.Errorf("g's State hook ran %d times for one tree of 4 call sites, want 4", *made)
	}
	if *dml != 0 {
		t.Errorf("g ran %d times without state inside an execution", *dml)
	}
	db.MustExec(`create table out (v int)`)
	db.MustExec(`insert into out values (f(g(7)))`)
	if res := db.MustExec(`select v from out`); len(res.Rows) != 1 || res.Rows[0][0].I != 70 || *dml != 1 {
		t.Errorf("INSERT through f(g(7)): rows %v, %d stateless calls; want 70 and 1", res.Rows, *dml)
	}
}

// TestStmtQueryRowContract: QueryRow is the single-row read of a
// prepared SELECT — its count stops at two, its bill is the one Rows.IO
// reports for the same run, every failure is returned with the tree
// handed back, and its trace has the shape a drained Query's has.
func TestStmtQueryRowContract(t *testing.T) {
	db := billDB(t)
	one := mustPrepare(t, db, `select fieldLen(data) from f where id = ?`)
	rows, err := one.Query(nil, Int(3))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	var dst [1]Value
	n, bill, err := one.QueryRow(nil, dst[:], Int(3))
	if err != nil || n != 1 || dst[0].I != 3*4096 {
		t.Fatalf("QueryRow: n %d, row %v, err %v", n, dst, err)
	}
	if bill != rows.IO() || bill.PageReads != 3 {
		t.Errorf("QueryRow billed %+v, Rows.IO %+v; want the same 3 pages", bill, rows.IO())
	}

	// Four rows match; the count stops at the second, and so does the
	// execution: only the first two fields are read.
	many := mustPrepare(t, db, `select fieldLen(data) from f where id >= ?`)
	n, bill, err = many.QueryRow(nil, dst[:], Int(1))
	if err != nil || n != 2 || dst[0].I != 4096 {
		t.Errorf("over 4 rows: n %d, first row %v, err %v; want 2 and 4096", n, dst, err)
	}
	if bill.PageReads != 1+2 {
		t.Errorf("over 4 rows: billed %d pages, want the 3 of the two rows counted", bill.PageReads)
	}
	if n, _, err = many.QueryRow(nil, dst[:], Int(9)); err != nil || n != 0 {
		t.Errorf("over no rows: n %d, err %v", n, err)
	}

	for _, tc := range []struct {
		name, sql string
		args      []Value
		want      string
		trees     int // operator trees idle afterwards: 1 where the run started
	}{
		{"short row", `select id, n from f where id = ?`, []Value{Int(1)}, "QueryRow into 1 values, statement has 2 columns", 1},
		{"failing call", `select fieldLen(n) from f where id >= ?`, []Value{Int(1)}, "unknown", 1},
		{"bind count", `select id from f where id = ?`, nil, "bind parameter", 0},
		{"not a SELECT", `delete from f where id = ?`, []Value{Int(9)}, "only SELECT", 0},
	} {
		stmt := mustPrepare(t, db, tc.sql)
		n, _, err := stmt.QueryRow(nil, dst[:], tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) || n != 0 {
			t.Errorf("%s: n %d, err %v; want no row and an error naming %q", tc.name, n, err, tc.want)
		}
		if got := len(idleTrees(stmt)); got != tc.trees {
			t.Errorf("%s: %d idle trees after the failure, want %d", tc.name, got, tc.trees)
		}
	}

	// The traced shapes: statement, phases, operators, lfm.read lines.
	tracer := obs.NewTracer()
	db.SetTracer(tracer)
	shape := func(run func(root *obs.Span)) string {
		root := tracer.Start("call")
		run(root)
		root.End()
		var b strings.Builder
		root.Walk(func(sp *obs.Span, depth int) { fmt.Fprintf(&b, "%*s%s\n", 2*depth, "", sp.Name()) })
		return b.String()
	}
	traced := mustPrepare(t, db, `select fieldLen(data) from f where id = ?`)
	viaRows := shape(func(root *obs.Span) {
		rows, err := traced.Query(root, Int(2))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		rows.Close()
	})
	viaRow := shape(func(root *obs.Span) {
		if _, _, err := traced.QueryRow(root, dst[:], Int(2)); err != nil {
			t.Fatal(err)
		}
	})
	if viaRow != viaRows || !strings.Contains(viaRow, "lfm.read") {
		t.Errorf("QueryRow's trace:\n%s\nQuery's:\n%s", viaRow, viaRows)
	}
}

// TestStmtQueryRowAllocBudget: a single-row read on a retained tree
// allocates nothing — no Rows, no output row, whatever the build sides
// hold.
func TestStmtQueryRowAllocBudget(t *testing.T) {
	for _, n := range []int{8, 2000} {
		_, stmt := joinChainDB(t, n)
		id, name := Int(5), Str("t1-5")
		var row [6]Value
		run := func() {
			if n, _, err := stmt.QueryRow(nil, row[:], id, name); err != nil || n != 1 || !row[0].Equal(id) {
				t.Fatalf("n %d, row %v, err %v", n, row, err)
			}
		}
		run()
		if got := testing.AllocsPerRun(50, run); got != 0 {
			t.Errorf("%d-row build sides: %.0f allocs per QueryRow, want 0", n, got)
		}
	}
}

// BenchmarkStmtQueryRow is BenchmarkStmtQuery's statement read through
// QueryRow, as the server reads its two statements. `make bench-smoke`
// runs it.
func BenchmarkStmtQueryRow(b *testing.B) {
	_, stmt := joinChainDB(b, 8)
	id, name := Int(5), Str("t1-5")
	var row [6]Value
	if _, _, err := stmt.QueryRow(nil, row[:], id, name); err != nil { // builds the tree
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, _, err := stmt.QueryRow(nil, row[:], id, name); err != nil || n != 1 {
			b.Fatalf("n %d, err %v", n, err)
		}
	}
}

// keeper is the call-site state of keep(x), which returns x and holds
// it until Reset.
type keeper struct {
	last  Value
	reset int
}

func (k *keeper) Reset() { k.last, k.reset = Value{}, k.reset+1 }

func registerKeep(t *testing.T, db *DB) {
	t.Helper()
	if err := db.RegisterUDF(&UDF{Name: "keep", MinArgs: 1, MaxArgs: 1,
		State: func() SiteState { return new(keeper) },
		Fn: func(call *Call, args []Value) (Value, error) {
			call.State().(*keeper).last = args[0]
			return args[0], nil
		}}); err != nil {
		t.Fatal(err)
	}
}

// idleSitesPinNothing checks an idle tree's call-site states and its
// projection buffer: every state was Reset and holds no value, and the
// output row is zeroed.
func idleSitesPinNothing(t *testing.T, x *execution) {
	t.Helper()
	kept := 0
	for i, s := range x.sites {
		if s == nil {
			continue
		}
		k := s.(*keeper)
		kept++
		if k.reset == 0 || !reflect.DeepEqual(k.last, Value{}) {
			t.Errorf("idle call site %d: reset %d times, still holds %v", i, k.reset, k.last)
		}
	}
	if kept == 0 {
		t.Error("the tree kept no call-site state")
	}
	out := x.root.out
	if cap(out) == 0 {
		t.Error("the projection kept no output buffer")
	}
	for i, v := range out[:cap(out)] {
		if !reflect.DeepEqual(v, Value{}) {
			t.Errorf("idle projection buffer slot %d still holds %v", i, v)
		}
	}
}
