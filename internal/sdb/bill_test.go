package sdb

import (
	"strings"
	"sync"
	"testing"

	"qbism/internal/lfm"
	"qbism/internal/obs"
)

// billDB holds four long fields of 1..4 pages in table f, and
// fieldLen(long), a UDF that reads its argument whole through the
// running statement's account and notes one probe.
func billDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t)
	db.MustExec(`create table f (id int, data long, n int)`)
	for id := 1; id <= 4; id++ {
		h, err := db.lfm.Allocate(make([]byte, id*4096))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRow("f", []Value{Int(int64(id)), Long(h), Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	db.lfm.ResetStats()
	if err := db.RegisterUDF(&UDF{Name: "fieldLen", MinArgs: 1, MaxArgs: 1,
		Fn: func(call *Call, args []Value) (Value, error) {
			data, err := call.IO().Read(args[0].L)
			if err != nil {
				return Value{}, err
			}
			call.NoteProbe()
			return Int(int64(len(data))), nil
		}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRowsIOIsTheStatementsOwnBill runs one prepared statement from
// eight goroutines at once, each bound to a different row: every Rows
// bills the pages of the field it read and nobody else's, and the bills
// sum to the device meter.
func TestRowsIOIsTheStatementsOwnBill(t *testing.T) {
	db := billDB(t)
	stmt := mustPrepare(t, db, `select fieldLen(data) from f where id = ?`)
	const rounds = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sum lfm.Stats
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rows, err := stmt.Query(nil, Int(id))
				if err != nil {
					t.Error(err)
					return
				}
				if !rows.Next() || rows.Row()[0].I != id*4096 {
					t.Errorf("id %d: row %v, err %v", id, rows.Row(), rows.Err())
				}
				if got := rows.IO(); got != (lfm.Stats{}) {
					t.Errorf("id %d: bill %+v before Close", id, got)
				}
				rows.Close()
				got := rows.IO()
				if got.PageReads != uint64(id) || got.Reads != 1 || got.BytesRead != uint64(id)*4096 {
					t.Errorf("id %d: billed %+v, read one %d-page field", id, got, id)
				}
				mu.Lock()
				sum.Add(got)
				mu.Unlock()
			}
		}(int64(g%4 + 1))
	}
	wg.Wait()
	if device := db.lfm.Stats(); sum != device {
		t.Errorf("bills sum to %+v, the device counted %+v", sum, device)
	}
}

// TestOperatorsChargedTheirOwnPagesAndProbes: EXPLAIN ANALYZE and a
// traced statement's spans show the pages and probes on the operator
// whose expression caused them, and the traced statement carries its
// per-field bill.
func TestOperatorsChargedTheirOwnPagesAndProbes(t *testing.T) {
	db := billDB(t)
	plan := planText(t, db, `explain analyze select fieldLen(data) from f where fieldLen(data) > 8192`)
	for _, want := range []string{
		"project [fieldLen(f.data)] [in=2 out=2 udf=2 pages=7 probe=2]",
		"filter (fieldLen(f.data) > 8192) [in=4 out=2 udf=4 pages=10 probe=4]",
		"scan f (4 rows) [in=0 out=4 udf=0 pages=0 probe=0]",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan lacks %q:\n%s", want, plan)
		}
	}

	db.SetTracer(obs.NewTracer())
	root := obs.NewTracer().Start("call")
	rows, err := db.QuerySpan(root, `select fieldLen(data) from f where id >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	if got := rows.IO().PageReads; got != 7 {
		t.Errorf("billed %d pages, read fields of 3 and 4", got)
	}
	stmt := root.Find("sql.query")
	var reads int
	for _, c := range stmt.Children() {
		if c.Name() == "lfm.read" {
			reads++
		}
	}
	if reads != 2 || root.SumInt("pages") != 7 || root.SumInt("lfmPages") != 7 || root.SumInt("probes") != 2 {
		t.Errorf("%d lfm.read spans, pages %d, operator pages %d, probes %d; want 2, 7, 7, 2:\n%s",
			reads, root.SumInt("pages"), root.SumInt("lfmPages"), root.SumInt("probes"), root.RenderString())
	}
}

// TestDMLUDFsReadUnbilled: a UDF in an INSERT's values has no execution
// to bill, and reads all the same.
func TestDMLUDFsReadUnbilled(t *testing.T) {
	db := billDB(t)
	h := db.MustExec(`select data from f where id = 2`).Rows[0][0]
	db.MustExec(`insert into f values (5, ?, fieldLen(?))`, h, h)
	res := db.MustExec(`select n from f where id = 5`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2*4096 {
		t.Errorf("rows = %v", res.Rows)
	}
	if got := db.lfm.Stats().PageReads; got != 2 {
		t.Errorf("device counted %d pages, want the 2 the INSERT read", got)
	}
}
