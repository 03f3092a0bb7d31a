package sdb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qbism/internal/bench"
	"qbism/internal/obs"
)

// The life cycle of a retained operator tree: a prepared statement
// keeps the trees its executions built and re-opens them, so these
// tests run one *Stmt again and again across everything that may come
// between two runs — writes to the tables it reads, a failed run, an
// abandoned one, a catalog change, other goroutines — and look inside
// the statement (white box) for what it holds when idle.

// idleTrees returns the operator trees the statement's current plan
// holds idle.
func idleTrees(s *Stmt) []*execution {
	c := s.plan.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*execution(nil), c.idle...)
}

// retainDB is a three-table catalog with a UDF that fails on demand:
// failif(x, n) is x, or an error when x = n.
func retainDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(nil)
	db.MustExec(`create table l (id int, tag string)`)
	db.MustExec(`create table b (id int, w int)`)
	db.MustExec(`create table c (w int, name string)`)
	db.MustExec(`insert into l values (1, 'one'), (2, 'two'), (3, 'three'), (4, 'four')`)
	db.MustExec(`insert into b values (1, 10), (2, 20), (3, 30)`)
	db.MustExec(`insert into c values (10, 'ten'), (20, 'twenty'), (30, 'thirty')`)
	db.RegisterUDF(&UDF{Name: "failif", MinArgs: 2, MaxArgs: 2,
		Fn: func(_ *Call, args []Value) (Value, error) {
			if args[0].Equal(args[1]) {
				return Value{}, errors.New("asked to fail")
			}
			return args[0], nil
		}})
	return db
}

func mustPrepare(t *testing.T, db *DB, sql string) *Stmt {
	t.Helper()
	stmt, err := db.Prepare(sql)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sql, err)
	}
	return stmt
}

// runKey executes the statement and fingerprints its rows in order.
func runKey(t *testing.T, stmt *Stmt, args ...Value) string {
	t.Helper()
	got := drain(stmt.Query(nil, args...))
	if got.err {
		t.Fatalf("execution with %v failed", args)
	}
	lines := make([]string, len(got.rows))
	for i, row := range got.rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, ",")
	}
	return strings.Join(lines, " ")
}

// TestRetainedTreeSeesWrites: a retained tree keeps the capacity of its
// hash table and of the nested loop's right side, never their contents,
// so rows inserted into either table between two runs show in the
// second.
func TestRetainedTreeSeesWrites(t *testing.T) {
	for _, tc := range []struct{ name, sql, op string }{
		{"hash", `select l.tag, b.w from l, b where l.id = b.id`, "hash join"},
		{"nested-loop", `select l.tag, b.w from l, b where l.id <= b.id and b.id <= l.id`, "nested loop join"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := retainDB(t)
			if plan := planText(t, db, "explain "+tc.sql); !strings.Contains(plan, tc.op) {
				t.Fatalf("not a %s:\n%s", tc.op, plan)
			}
			stmt := mustPrepare(t, db, tc.sql)
			step := func(what, want string) {
				t.Helper()
				if got := runKey(t, stmt); got != want {
					t.Errorf("after %s: %q, want %q", what, got, want)
				}
				if n := len(idleTrees(stmt)); n != 1 {
					t.Errorf("after %s: %d idle trees, want the one tree reused", what, n)
				}
			}
			step("load", "one,10 two,20 three,30")
			if err := db.InsertRow("b", []Value{Int(4), Int(40)}); err != nil {
				t.Fatal(err)
			}
			step("InsertRow", "one,10 two,20 three,30 four,40")
			db.MustExec(`insert into b values (2, 21), (5, 50)`)
			step("INSERT into the build side", "one,10 two,20 two,21 three,30 four,40")
			db.MustExec(`insert into l values (5, 'five'), (0, 'zero')`)
			step("INSERT into the probe side", "one,10 two,20 two,21 three,30 four,40 five,50")
		})
	}
}

// TestRetainedTreeAfterFailure: an execution that dies mid-stream — in
// a join key of either side, a pushed filter, the projection — hands
// back a tree the next execution runs correctly on.
func TestRetainedTreeAfterFailure(t *testing.T) {
	for _, tc := range []struct{ name, sql string }{
		{"probe key", `select l.tag, b.w from l, b where failif(l.id, ?) = b.id`},
		{"build key", `select l.tag, b.w from l, b where l.id = failif(b.id, ?)`},
		{"pushed filter", `select l.tag, b.w from l, b where l.id = b.id and failif(b.id, ?) > 0`},
		{"projection", `select l.tag, failif(b.w, ? * 10) from l, b where l.id = b.id`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := retainDB(t)
			stmt := mustPrepare(t, db, tc.sql)
			const want = "one,10 two,20 three,30"
			if got := runKey(t, stmt, Int(99)); got != want {
				t.Fatalf("first run: %q, want %q", got, want)
			}
			for round := 0; round < 2; round++ {
				// Fails on the second of three joined rows.
				rows, err := stmt.Query(nil, Int(2))
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for rows.Next() {
					n++
				}
				if rows.Err() == nil || !strings.Contains(rows.Err().Error(), "asked to fail") {
					t.Fatalf("execution bound to fail returned %d rows and err %v", n, rows.Err())
				}
				if got := runKey(t, stmt, Int(99)); got != want {
					t.Errorf("run after the failure: %q, want %q", got, want)
				}
				if n := len(idleTrees(stmt)); n != 1 {
					t.Errorf("%d idle trees, want 1: the failed execution must return its tree", n)
				}
			}
		})
	}
}

// TestRetainedTreeAfterEarlyClose: abandoning an execution after one
// row of many (querySingle's n > 1 break) leaves nothing behind that
// the next, full run could see.
func TestRetainedTreeAfterEarlyClose(t *testing.T) {
	db := retainDB(t)
	stmt := mustPrepare(t, db, `select l.tag, c.name from l, b, c where l.id = b.id and b.w = c.w and l.id >= ?`)
	const all = "one,ten two,twenty three,thirty"
	for round := 0; round < 3; round++ {
		rows, err := stmt.Query(nil, Int(1))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatal("no first row")
		}
		rows.Close()
		if got := runKey(t, stmt, Int(1)); got != all {
			t.Errorf("full run after an early Close: %q, want %q", got, all)
		}
		if got := runKey(t, stmt, Int(3)); got != "three,thirty" {
			t.Errorf("rebound run: %q", got)
		}
	}
	if n := len(idleTrees(stmt)); n != 1 {
		t.Errorf("%d idle trees after serial runs, want 1", n)
	}
}

// TestRowsOutliveTheirExecution: Row() hands out a row the caller may
// keep — past Close and past later executions on the same tree — and a
// closed Rows cannot reach the tree it gave back.
func TestRowsOutliveTheirExecution(t *testing.T) {
	db := retainDB(t)
	stmt := mustPrepare(t, db, `select l.tag, b.w, c.name from l, b, c where l.id = b.id and b.w = c.w and l.id = ?`)
	rows, err := stmt.Query(nil, Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	kept := rows.Row()
	if n := len(idleTrees(stmt)); n != 0 {
		t.Fatalf("%d idle trees while the only one is running", n)
	}
	rows.Close()
	tree := idleTrees(stmt)
	if len(tree) != 1 {
		t.Fatalf("%d idle trees after Close, want 1", len(tree))
	}
	if rows.Next() {
		t.Error("Next after Close returned a row")
	}
	rows.Close()
	if n := len(idleTrees(stmt)); n != 1 {
		t.Errorf("%d idle trees after a second Close: the tree was released twice", n)
	}
	// Another execution takes the same tree, runs to completion and
	// binds different values.
	if got := runKey(t, stmt, Int(3)); got != "three,30,thirty" {
		t.Errorf("second execution: %q", got)
	}
	if again := idleTrees(stmt); len(again) != 1 || again[0] != tree[0] {
		t.Error("the second execution did not reuse the first one's tree")
	}
	if rows.Next() || rows.Err() != nil {
		t.Error("a closed Rows woke up after its tree ran again")
	}
	if got := fmt.Sprint(kept); got != "[two 20 twenty]" {
		t.Errorf("the kept row changed to %v", got)
	}
	if got := fmt.Sprint(rows.Row()); got != "[two 20 twenty]" {
		t.Errorf("Row() of the closed Rows changed to %v", got)
	}
}

// TestIdleTreePinsNothing: an idle tree keeps capacity only. Walk
// everything it can reach: no bind value, no table row, no join key, no
// output row and nothing a call site's state held.
func TestIdleTreePinsNothing(t *testing.T) {
	db := retainDB(t)
	registerKeep(t, db)
	stmt := mustPrepare(t, db, `
		select keep(l.tag), c.name from l, b, c
		where l.id = b.id and b.w <= c.w and c.w <= b.w and l.tag <> ?`)
	if got := runKey(t, stmt, Str("a bound string")); got != "one,ten two,twenty three,thirty" {
		t.Fatalf("rows: %q", got)
	}
	trees := idleTrees(stmt)
	if len(trees) != 1 {
		t.Fatalf("%d idle trees", len(trees))
	}
	x := trees[0]
	idleSitesPinNothing(t, x)
	for i, v := range x.params {
		if !reflect.DeepEqual(v, Value{}) {
			t.Errorf("bind %d still holds %v", i, v)
		}
	}
	for i, row := range x.bufs {
		if row != nil {
			t.Errorf("tuple buffer slot %d still points at a row", i)
		}
	}
	joins := 0
	eachOp(x.root, func(op operator) {
		b := op.stats()
		if *b != (opStats{}) {
			t.Errorf("%s: counters %+v not zeroed", op.describe(), *b)
		}
		switch o := op.(type) {
		case *hashJoinOp:
			joins++
			if cap(o.rows) == 0 || cap(o.keys) == 0 || cap(o.links) == 0 {
				t.Errorf("%s kept no capacity", o.describe())
			}
			for _, row := range o.rows[:cap(o.rows)] {
				if row != nil {
					t.Errorf("%s: idle hash table pins a build row", o.describe())
				}
			}
			for _, v := range append(o.keys[:cap(o.keys)], o.probe[:cap(o.probe)]...) {
				if !reflect.DeepEqual(v, Value{}) {
					t.Errorf("%s: idle hash table pins key %v", o.describe(), v)
				}
			}
			if o.ev.rows != nil {
				t.Errorf("%s: evaluation context still holds a tuple", o.describe())
			}
		case *nlJoinOp:
			joins++
			for _, row := range o.rightRows[:cap(o.rightRows)] {
				if row != nil {
					t.Errorf("idle nested loop pins a right row")
				}
			}
		case *projectOp:
			if o.ev.rows != nil {
				t.Error("projection's evaluation context still holds a tuple")
			}
		}
	})
	if joins != 2 {
		t.Errorf("walked %d joins, want the hash join and the nested loop", joins)
	}
}

// TestRetainedTreesDieWithTheirPlan: a catalog change re-plans the
// statement; the new plan starts with no idle trees and never sees the
// old plan's.
func TestRetainedTreesDieWithTheirPlan(t *testing.T) {
	const query = `select l.tag, b.w from l, b where l.id = b.id and failif(b.w, 0) > 10`
	for _, tc := range []struct {
		name   string
		change func(db *DB)
	}{
		{"CreateTable", func(db *DB) { db.MustExec(`create table extra (a int)`) }},
		{"RegisterUDF", func(db *DB) {
			db.RegisterUDF(&UDF{Name: "failif", MinArgs: 2, MaxArgs: 2,
				Fn: func(_ *Call, args []Value) (Value, error) { return Int(args[0].I + 5), nil }})
		}},
		{"SetPushdown", func(db *DB) { db.SetPushdown(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := retainDB(t)
			stmt := mustPrepare(t, db, query)
			// An execution in flight across the change finishes on, and
			// returns its tree to, the plan it started with.
			inFlight, err := stmt.Query(nil)
			if err != nil || !inFlight.Next() {
				t.Fatal("no first row", err)
			}
			before := runKey(t, stmt)
			oldPlan := stmt.plan.Load()
			oldTrees := idleTrees(stmt)
			if len(oldTrees) != 1 {
				t.Fatalf("%d idle trees with one execution in flight and one finished, want 1", len(oldTrees))
			}

			tc.change(db)

			after := runKey(t, stmt)
			newPlan := stmt.plan.Load()
			if newPlan == oldPlan {
				t.Fatal("the statement was not re-planned")
			}
			if (tc.name == "RegisterUDF") == (after == before) {
				t.Errorf("rows %q before the change, %q after: which failif ran?", before, after)
			}
			newTrees := idleTrees(stmt)
			if len(newTrees) != 1 || newTrees[0] == oldTrees[0] {
				t.Errorf("new plan holds %d idle trees, or the old plan's", len(newTrees))
			}
			for inFlight.Next() {
			}
			inFlight.Close()
			if n := len(idleTrees(stmt)); n != 1 {
				t.Errorf("the execution in flight across the change returned its tree to the new plan (%d idle)", n)
			}
			oldPlan.mu.Lock()
			n := len(oldPlan.idle)
			oldPlan.mu.Unlock()
			if n != 2 {
				t.Errorf("old plan holds %d trees, want its 2", n)
			}
		})
	}
}

// TestRetainedTreeCountersPerExecution: EXPLAIN ANALYZE through one
// prepared statement reports each execution's counters, not a running
// total, and so do a traced statement's operator spans.
func TestRetainedTreeCountersPerExecution(t *testing.T) {
	db := retainDB(t)
	const query = `select l.tag, b.w from l, b where l.id = b.id and b.w >= ?`
	expl := mustPrepare(t, db, "explain analyze "+query)
	res, err := expl.Exec(Int(20))
	first := planLines(t, res, err)
	if !strings.Contains(first, "scan l (4 rows) [in=0 out=4") || !strings.Contains(first, "[in=2 out=2") {
		t.Fatalf("unexpected counters:\n%s", first)
	}
	res, err = expl.Exec(Int(20))
	if second := planLines(t, res, err); second != first {
		t.Errorf("EXPLAIN ANALYZE, second execution:\n%s\nfirst:\n%s", second, first)
	}
	res, err = expl.Exec(Int(30))
	if third := planLines(t, res, err); third == first || !strings.Contains(third, "[in=1 out=1") {
		t.Errorf("EXPLAIN ANALYZE bound to 30:\n%s", third)
	}
	if n := len(idleTrees(expl)); n != 1 {
		t.Errorf("%d idle trees after three EXPLAIN ANALYZE runs, want 1", n)
	}

	tracer := obs.NewTracer()
	db.SetTracer(tracer)
	stmt := mustPrepare(t, db, query)
	for round, bind := range []int64{20, 20, 30, 10} {
		root := tracer.Start("test")
		if got := drain(stmt.Query(root, Int(bind))); got.err {
			t.Fatal("traced execution failed")
		}
		root.End()
		exec := root.Find("sql.execute")
		if exec == nil || len(exec.Children()) != 1 {
			t.Fatalf("round %d: no operator tree under sql.execute:\n%s", round, root.RenderString())
		}
		project := exec.Children()[0]
		wantOut := map[int64]int64{10: 3, 20: 2, 30: 1}[bind]
		if out, _ := project.Int("rowsOut"); out != wantOut {
			t.Errorf("round %d: project span rowsOut = %d, want %d:\n%s", round, out, wantOut, root.RenderString())
		}
		scanned := int64(0)
		project.Walk(func(sp *obs.Span, _ int) {
			if strings.HasPrefix(sp.Name(), "scan l") {
				scanned, _ = sp.Int("rowsOut")
			}
		})
		if scanned != 4 {
			t.Errorf("round %d: scan l span rowsOut = %d, want 4 (this execution's, not a total)", round, scanned)
		}
	}
}

// TestRetainedTreesConcurrent: N goroutines sharing one *Stmt leave at
// most N idle trees however many executions they run, every execution
// correct. Under -race this is the proof that a tree has one owner at
// a time.
func TestRetainedTreesConcurrent(t *testing.T) {
	db := retainDB(t)
	stmt := mustPrepare(t, db, `select l.tag, c.name from l, b, c where l.id = b.id and b.w = c.w and l.id = ?`)
	want := map[int64]string{1: "one,ten", 2: "two,twenty", 3: "three,thirty", 4: ""}
	const workers, runs = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				id := int64((i+w)%4 + 1)
				got := drain(stmt.Query(nil, Int(id)))
				key := ""
				if len(got.rows) == 1 {
					key = got.rows[0][0].S + "," + got.rows[0][1].S
				}
				if got.err || len(got.rows) > 1 || key != want[id] {
					t.Errorf("worker %d run %d: id %d returned %q (err %v)", w, i, id, rowsKey(got.rows), got.err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(idleTrees(stmt)); n < 1 || n > workers {
		t.Errorf("%d idle trees after %d executions by %d goroutines, want 1..%d", n, workers*runs, workers, workers)
	}
}

// joinChainDB is a 4-table equality-join catalog whose build sides hold
// n rows each; exactly one row survives the statement's filter.
func joinChainDB(tb testing.TB, n int) (*DB, *Stmt) {
	tb.Helper()
	db := NewDB(nil)
	for _, name := range []string{"t1", "t2", "t3", "t4"} {
		db.MustExec(fmt.Sprintf(`create table %s (id int, nxt int, name string)`, name))
		for i := 0; i < n; i++ {
			if err := db.InsertRow(name, []Value{Int(int64(i)), Int(int64(i)), Str(fmt.Sprintf("%s-%d", name, i))}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// The metadata statement's shape: three hash joins, two bound
	// filters, a wide select list, one row out.
	stmt, err := db.Prepare(`
		select t1.id, t1.name, t2.name, t3.name, t4.name, t4.nxt
		from   t1, t2, t3, t4
		where  t1.nxt = t2.id and t2.nxt = t3.id and t3.nxt = t4.id and
		       t2.id = ? and t1.name = ?`)
	if err != nil {
		tb.Fatal(err)
	}
	return db, stmt
}

// runJoinChain is one Query + drain + Close, checking the single row.
func runJoinChain(tb testing.TB, stmt *Stmt, id, name Value) {
	rows, err := stmt.Query(nil, id, name)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if row := rows.Row(); len(row) != 6 || !row[0].Equal(id) {
			tb.Fatalf("row %v", row)
		}
		n++
	}
	if err := rows.Close(); err != nil || rows.Err() != nil || n != 1 {
		tb.Fatalf("%d rows, err %v / %v", n, rows.Err(), err)
	}
}

// TestStmtQueryAllocBudget pins what a steady-state execution of a
// prepared join costs: the Rows and the projected output row — neither
// the operator tree, nor its tuple buffers, nor its three hash tables,
// however many rows they hold.
func TestStmtQueryAllocBudget(t *testing.T) {
	for _, n := range []int{8, 2000} {
		_, stmt := joinChainDB(t, n)
		id, name := Int(5), Str("t1-5")
		runJoinChain(t, stmt, id, name) // builds the tree and grows its tables
		got := testing.AllocsPerRun(50, func() { runJoinChain(t, stmt, id, name) })
		t.Logf("%d-row build sides: %.0f allocs per Query+drain+Close", n, got)
		if got > 2 {
			t.Errorf("%d-row build sides: %.0f allocs per execution, ceiling 2 — is the tree, a tuple buffer or a hash table built per call again?", n, got)
		}
	}
}

// TestStmtReserveCoversFirstOverlap: a statement that has run, reserved
// for two and run again in a row — which grows the reserved tree, taken
// first — runs its first two executions at once without building an
// operator tree or growing a hash table, at what two in a row cost. Both
// sides are counted the same way (bench.AllocsInWindow), each window on a
// statement set up afresh, so neither side is a truncated mean nor counts
// what another goroutine allocates meanwhile.
func TestStmtReserveCoversFirstOverlap(t *testing.T) {
	id, name := Int(5), Str("t1-5")
	var stmt *Stmt
	inRow := func() {
		runJoinChain(t, stmt, id, name)
		runJoinChain(t, stmt, id, name)
	}
	setup := func() {
		_, stmt = joinChainDB(t, 2000)
		runJoinChain(t, stmt, id, name)
		if err := stmt.Reserve(2); err != nil {
			t.Fatal(err)
		}
		inRow()
	}
	twoInRow := bench.AllocsInWindow(t.Logf, setup, inRow)
	overlap := bench.AllocsInWindow(t.Logf, setup, func() {
		var open [2]*Rows
		for i := range open {
			rows, err := stmt.Query(nil, id, name)
			if err != nil {
				t.Fatal(err)
			}
			open[i] = rows
		}
		for _, rows := range open {
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("the first overlap: %.0f allocations; two executions in a row: %.0f", overlap, twoInRow)
	if overlap > twoInRow {
		t.Errorf("the first overlap made %.0f allocations, two executions in a row %.0f — was a tree built or grown?", overlap, twoInRow)
	}
}

// BenchmarkStmtQuery is one execution of a prepared statement of the
// metadata statement's shape over an 8-row catalog: what the SQL layer
// costs a request that returns one row. `make bench-smoke` runs it.
func BenchmarkStmtQuery(b *testing.B) {
	_, stmt := joinChainDB(b, 8)
	id, name := Int(5), Str("t1-5")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJoinChain(b, stmt, id, name)
	}
}

// TestStmtQueryUDFAllocBudget: UDF calls, nested ones included, take
// their argument vectors from the execution's stack, so a statement
// whose functions allocate nothing costs what TestStmtQueryAllocBudget's
// join does — the Rows and the output row.
func TestStmtQueryUDFAllocBudget(t *testing.T) {
	db, _ := joinChainDB(t, 8)
	for _, u := range []*UDF{
		{Name: "g", MinArgs: 1, MaxArgs: 1, Fn: func(_ *Call, args []Value) (Value, error) { return Int(args[0].I + 1), nil }},
		{Name: "f", MinArgs: 2, MaxArgs: 2, Fn: func(_ *Call, args []Value) (Value, error) { return Int(args[0].I * args[1].I), nil }},
	} {
		if err := db.RegisterUDF(u); err != nil {
			t.Fatal(err)
		}
	}
	stmt := mustPrepare(t, db, `
		select f(g(t1.id), g(g(t2.nxt))) from t1, t2
		where t1.nxt = t2.id and f(g(t2.id), 1) = ?`)
	run := func() {
		rows, err := stmt.Query(nil, Int(6))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			if got := rows.Row()[0]; got.T != TInt || got.I != 6*7 {
				t.Fatalf("row %v, want 42", rows.Row())
			}
			n++
		}
		if err := rows.Close(); err != nil || rows.Err() != nil || n != 1 {
			t.Fatalf("%d rows, err %v / %v", n, rows.Err(), err)
		}
	}
	run()
	got := testing.AllocsPerRun(50, run)
	t.Logf("%.0f allocs per Query+drain+Close", got)
	if got > 2 {
		t.Errorf("%.0f allocs per execution, ceiling 2 — is an argument vector allocated per call again?", got)
	}
}

// opaque is an Object test UDFs pass between each other.
type opaque struct{ n int64 }

func (o *opaque) Encode() ([]byte, error) { return []byte(fmt.Sprintf("opaque %d", o.n)), nil }

// TestObjectStaysInItsCallChain: an Object a UDF returns reaches a UDF
// that takes it as an argument as it is, and stands as its encoding
// everywhere else — the output row, a comparison — so no Object leaves
// the statement, and an idle tree's argument stack holds none.
func TestObjectStaysInItsCallChain(t *testing.T) {
	db := retainDB(t)
	for _, u := range []*UDF{
		{Name: "wrap", MinArgs: 1, MaxArgs: 1, Fn: func(_ *Call, args []Value) (Value, error) {
			return Obj(&opaque{args[0].I}), nil
		}},
		{Name: "unwrap", MinArgs: 1, MaxArgs: 1, Fn: func(_ *Call, args []Value) (Value, error) {
			o, ok := args[0].O.(*opaque)
			if args[0].T != TObject || !ok {
				return Value{}, fmt.Errorf("unwrap got a %s", args[0].T)
			}
			return Int(o.n), nil
		}},
	} {
		if err := db.RegisterUDF(u); err != nil {
			t.Fatal(err)
		}
	}
	stmt := mustPrepare(t, db, `
		select unwrap(wrap(l.id)), wrap(l.id) from l
		where wrap(l.id) <> ? and unwrap(wrap(l.id)) < 4`)
	got := drain(stmt.Query(nil, Bytes([]byte("opaque 2"))))
	if got.err {
		t.Fatal("execution failed")
	}
	if len(got.rows) != 2 {
		t.Fatalf("%d rows, want ids 1 and 3", len(got.rows))
	}
	for i, id := range []int64{1, 3} {
		n, o := got.rows[i][0], got.rows[i][1]
		if n.T != TInt || n.I != id || o.T != TBytes || string(o.Y) != fmt.Sprintf("opaque %d", id) {
			t.Errorf("row %d is %v %v (%q), want %d and the Object's encoding", i, n, o, o.Y, id)
		}
	}
	if _, err := db.Exec(`select unwrap(l.id) from l`); err == nil {
		t.Error("unwrap of a plain INT accepted")
	}
	trees := idleTrees(stmt)
	if len(trees) != 1 {
		t.Fatalf("%d idle trees", len(trees))
	}
	stack := trees[0].args.v
	if len(stack) != 0 || cap(stack) == 0 {
		t.Errorf("idle argument stack has length %d, capacity %d; want 0 and some", len(stack), cap(stack))
	}
	for i, v := range stack[:cap(stack)] {
		if !reflect.DeepEqual(v, Value{}) {
			t.Errorf("idle argument stack slot %d still holds %v", i, v)
		}
	}
}
