package sdb

import (
	"strings"
	"testing"

	"qbism/internal/lfm"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	m, err := lfm.New(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(m)
}

func TestCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table patient (patientId int, name varchar(30), age int)`)
	db.MustExec(`insert into patient values (1, 'Jane', 40), (2, 'Sue', 35)`)
	res := db.MustExec(`select name, age from patient where age > 36`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Jane" || res.Rows[0][1].I != 40 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "name" || res.Columns[1] != "age" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestInsertColumnList(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int, b string, c float)`)
	db.MustExec(`insert into t (c, a) values (1.5, 7)`)
	res := db.MustExec(`select a, b, c from t`)
	row := res.Rows[0]
	if row[0].I != 7 || !row[1].IsNull() || row[2].F != 1.5 {
		t.Errorf("row = %v", row)
	}
}

func TestJoinTwoTables(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table a (id int, x string)`)
	db.MustExec(`create table b (id int, y string)`)
	db.MustExec(`insert into a values (1,'one'),(2,'two'),(3,'three')`)
	db.MustExec(`insert into b values (2,'TWO'),(3,'THREE'),(4,'FOUR')`)
	res := db.MustExec(`select a.x, b.y from a, b where a.id = b.id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPaperFirstQueryParsesAndRuns(t *testing.T) {
	// The first SQL query of Section 3.4, verbatim (including the "a",
	// "rv", "wv", "p" aliases without AS).
	db := newTestDB(t)
	db.MustExec(`create table atlas (atlasId int, atlasName string, n int, x0 float, y0 float, z0 float, dx float, dy float, dz float)`)
	db.MustExec(`create table rawVolume (studyId int, patientId int, date string, data long)`)
	db.MustExec(`create table warpedVolume (studyId int, atlasId int, data long)`)
	db.MustExec(`create table patient (patientId int, name string)`)
	db.MustExec(`insert into atlas values (1, 'Talairach', 128, 0.0, 0.0, 0.0, 1.5, 1.5, 1.5)`)
	db.MustExec(`insert into rawVolume (studyId, patientId, date) values (53, 7, '1993-08-01')`)
	db.MustExec(`insert into warpedVolume (studyId, atlasId) values (53, 1)`)
	db.MustExec(`insert into patient values (7, 'Jane Doe')`)

	res := db.MustExec(`
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv,
       warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and
       wv.studyId = rv.studyId and
       rv.patientId = p.patientId and
       rv.studyId = 53 and a.atlasName = 'Talairach'`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].I != 128 || row[8].S != "Jane Doe" || row[10].S != "1993-08-01" {
		t.Errorf("row = %v", row)
	}
}

func TestAsUsableAsAlias(t *testing.T) {
	// The paper's second query aliases atlasStructure as "as"; AS is not
	// a reserved word in this dialect.
	db := newTestDB(t)
	db.MustExec(`create table atlasStructure (structureId int, region long)`)
	db.MustExec(`insert into atlasStructure (structureId) values (9)`)
	res := db.MustExec(`select as.structureId from atlasStructure as where as.structureId = 9`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 9 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int, b string)`)
	db.MustExec(`insert into t values (1, 'x')`)
	res := db.MustExec(`select * from t`)
	if len(res.Columns) != 2 || res.Columns[0] != "t.a" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 || res.Rows[0][1].S != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestUDFInQuery(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int)`)
	db.MustExec(`insert into t values (2), (5), (9)`)
	err := db.RegisterUDF(&UDF{
		Name: "double", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *Call, args []Value) (Value, error) {
			return Int(args[0].I * 2), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := db.MustExec(`select double(a) from t where double(a) > 5`)
	if len(res.Rows) != 2 || res.Rows[0][0].I != 10 || res.Rows[1][0].I != 18 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "double" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestUDFArgCountAndErrors(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int)`)
	db.MustExec(`insert into t values (1)`)
	db.RegisterUDF(&UDF{Name: "f", MinArgs: 2, MaxArgs: 3,
		Fn: func(_ *Call, args []Value) (Value, error) { return Int(0), nil }})
	if _, err := db.Exec(`select f(a) from t`); err == nil {
		t.Error("too few args accepted")
	}
	if _, err := db.Exec(`select f(a,a,a,a) from t`); err == nil {
		t.Error("too many args accepted")
	}
	if _, err := db.Exec(`select g(a) from t`); err == nil {
		t.Error("unknown function accepted")
	}
	if err := db.RegisterUDF(&UDF{Name: ""}); err == nil {
		t.Error("nameless UDF accepted")
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int, b string)`)
	db.MustExec(`insert into t values (1,'x'),(2,'y'),(3,'z')`)
	res := db.MustExec(`update t set b = 'Q' where a >= 2`)
	if res.Affected != 2 {
		t.Errorf("updated %d", res.Affected)
	}
	res = db.MustExec(`delete from t where b = 'Q'`)
	if res.Affected != 2 {
		t.Errorf("deleted %d", res.Affected)
	}
	res = db.MustExec(`select * from t`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Unconditional delete.
	db.MustExec(`delete from t`)
	if len(db.MustExec(`select * from t`).Rows) != 0 {
		t.Error("table not emptied")
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int)`)
	db.MustExec(`insert into t values (10)`)
	cases := map[string]int64{
		`select a + 2 * 3 from t`:     16,
		`select (a + 2) * 3 from t`:   36,
		`select a / 3 from t`:         3,
		`select a % 3 from t`:         1,
		`select -a + 1 from t`:        -9,
		`select a - 1 - 2 from t`:     7, // left associative
		`select 2 + a % 3 * 4 from t`: 6,
	}
	for sql, want := range cases {
		res := db.MustExec(sql)
		if got := res.Rows[0][0].I; got != want {
			t.Errorf("%s = %d, want %d", sql, got, want)
		}
	}
	resF := db.MustExec(`select a / 4.0 from t`)
	if resF.Rows[0][0].F != 2.5 {
		t.Errorf("float division = %v", resF.Rows[0][0])
	}
}

func TestBooleanLogic(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int)`)
	db.MustExec(`insert into t values (1),(2),(3),(4)`)
	res := db.MustExec(`select a from t where a = 1 or a = 3 and a > 2`)
	// AND binds tighter than OR: rows 1 and 3.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = db.MustExec(`select a from t where not (a = 2 or a = 3)`)
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = db.MustExec(`select a from t where true and a <> 2`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestComparisonOperators(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int, s string)`)
	db.MustExec(`insert into t values (1,'a'),(2,'b'),(3,'c')`)
	for sql, want := range map[string]int{
		`select a from t where a <= 2`:    2,
		`select a from t where a >= 2`:    2,
		`select a from t where a != 2`:    2,
		`select a from t where s < 'c'`:   2,
		`select a from t where s > 'a'`:   2,
		`select a from t where a = 1.0`:   1, // int/float coercion
		`select a from t where a < 2.5`:   2,
		`select a from t where NOT a = 1`: 2,
	} {
		res := db.MustExec(sql)
		if len(res.Rows) != want {
			t.Errorf("%s returned %d rows, want %d", sql, len(res.Rows), want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int, b int)`)
	db.MustExec(`insert into t values (1, null), (2, 5)`)
	// NULL never matches = or <>.
	if rows := db.MustExec(`select a from t where b = 5`).Rows; len(rows) != 1 {
		t.Errorf("b=5: %v", rows)
	}
	if rows := db.MustExec(`select a from t where b <> 5`).Rows; len(rows) != 0 {
		t.Errorf("b<>5: %v", rows)
	}
}

func TestParseErrors(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		``,
		`selec a from t`,
		`select from t`,
		`select a from`,
		`select a from t where`,
		`create table`,
		`create table t (a unknowntype)`,
		`create table t (a int`,
		`insert into t values`,
		`insert into t values (1`,
		`select a from t where a = 'unterminated`,
		`select a @ b from t`,
		`select (a from t`,
		`select a from t; extra`,
		`update t set`,
		`delete t`,
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted: %s", sql)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int)`)
	db.MustExec(`create table u (a int)`)
	db.MustExec(`insert into t values (1)`)
	db.MustExec(`insert into u values (1)`)
	bad := []string{
		`select a from nosuch`,
		`select nosuch from t`,
		`select t.nosuch from t`,
		`select x.a from t`,
		`select a from t, u`,                  // ambiguous a
		`select t.a from t t, u t`,            // duplicate alias
		`select a from t where a`,             // non-bool where
		`select a from t where a + 'x' = 1`,   // type error
		`select a from t where a / 0 = 1`,     // div by zero
		`select a from t where not a`,         // NOT non-bool
		`select -a from u where 'x' < 1`,      // unorderable
		`insert into t values (1, 2)`,         // arity
		`insert into t (nosuch) values (1)`,   // bad column
		`insert into t values ('not an int')`, // type
		`update t set nosuch = 1`,
		`delete from nosuch`,
		`create table t (a int)`,          // duplicate table
		`create table v (a int, A float)`, // duplicate column (case-insensitive)
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted: %s", sql)
		}
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`CREATE TABLE Foo (Bar INT)`)
	db.MustExec(`INSERT INTO foo VALUES (3)`)
	res := db.MustExec(`SELECT bar FROM FOO WHERE BAR = 3`)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCommentsAndSemicolon(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (a int) -- trailing comment`)
	db.MustExec("insert into t values (1); ")
	res := db.MustExec("select a -- pick a\nfrom t;")
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestStringEscapes(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t (s string)`)
	db.MustExec(`insert into t values ('it''s')`)
	res := db.MustExec(`select s from t`)
	if res.Rows[0][0].S != "it's" {
		t.Errorf("s = %q", res.Rows[0][0].S)
	}
}

func TestJoinOrderAvoidsCrossProduct(t *testing.T) {
	// Three tables, each 60 rows: with predicate pushdown the selective
	// single-table filter must run first; a naive cross product would be
	// 216000 combinations. We verify correctness and that it completes
	// fast by construction (test timeout would catch a blowup).
	db := newTestDB(t)
	db.MustExec(`create table a (id int)`)
	db.MustExec(`create table b (id int)`)
	db.MustExec(`create table c (id int)`)
	var sb strings.Builder
	sb.WriteString("insert into a values ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(")
		sb.WriteString(strings.TrimSpace(strings.Repeat(" ", 1)))
		sb.WriteString(intToStr(i))
		sb.WriteString(")")
	}
	db.MustExec(sb.String())
	db.MustExec(strings.Replace(sb.String(), "into a", "into b", 1))
	db.MustExec(strings.Replace(sb.String(), "into a", "into c", 1))
	res := db.MustExec(`select a.id from c, b, a where a.id = 7 and b.id = a.id and c.id = b.id`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func intToStr(i int) string {
	return strings.TrimSpace(strings.Join([]string{string(rune('0' + i/10)), string(rune('0' + i%10))}, ""))
}

func TestLongColumnRoundTrip(t *testing.T) {
	db := newTestDB(t)
	h, err := db.lfm.Allocate([]byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`create table t (id int, data long)`)
	if err := db.InsertRow("t", []Value{Int(1), Long(h)}); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec(`select data from t where id = 1`)
	if res.Rows[0][0].T != TLong || res.Rows[0][0].L != h {
		t.Errorf("long value = %v", res.Rows[0][0])
	}
	got, err := db.lfm.Read(res.Rows[0][0].L)
	if err != nil || string(got) != "blob" {
		t.Errorf("read = %q, %v", got, err)
	}
}

func TestValueStringAndTypeString(t *testing.T) {
	vals := []Value{Null(), Int(5), Float(2.5), Str("x"), Bool(true), Bool(false), Long(3), Bytes([]byte{1, 2})}
	for _, v := range vals {
		if v.String() == "" {
			t.Errorf("empty String for %v type", v.T)
		}
		if v.T.String() == "" {
			t.Errorf("empty type name for %d", v.T)
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Error("unknown type string")
	}
	if (Value{T: Type(99)}).String() != "?" {
		t.Error("unknown value string")
	}
}

func TestValueEqualCoercion(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("2 != 2.0")
	}
	if Int(2).Equal(Str("2")) {
		t.Error("2 == '2'")
	}
	if Null().Equal(Null()) {
		t.Error("NULL == NULL")
	}
	if !Bytes([]byte{1}).Equal(Bytes([]byte{1})) {
		t.Error("bytes equality broken")
	}
	if Bytes([]byte{1}).Equal(Bytes([]byte{1, 2})) {
		t.Error("bytes length ignored")
	}
	if Bytes([]byte{1}).Equal(Bytes([]byte{2})) {
		t.Error("bytes content ignored")
	}
	if !Long(lfm.Handle(4)).Equal(Long(lfm.Handle(4))) {
		t.Error("long equality broken")
	}
	if Bool(true).Equal(Bool(false)) {
		t.Error("bool equality broken")
	}
}

func TestMustExecPanics(t *testing.T) {
	db := newTestDB(t)
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic")
		}
	}()
	db.MustExec(`select broken`)
}

func TestTableNames(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`create table t1 (a int)`)
	db.MustExec(`create table t2 (a int)`)
	names := db.TableNames()
	if len(names) != 2 {
		t.Errorf("names = %v", names)
	}
}

func BenchmarkThreeWayJoin(b *testing.B) {
	m, _ := lfm.New(1<<20, 4096)
	db := NewDB(m)
	db.MustExec(`create table a (id int, v int)`)
	db.MustExec(`create table b (id int, v int)`)
	db.MustExec(`create table c (id int, v int)`)
	for i := 0; i < 100; i++ {
		for _, tn := range []string{"a", "b", "c"} {
			db.InsertRow(tn, []Value{Int(int64(i)), Int(int64(i * 2))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select a.v from a, b, c where a.id = b.id and b.id = c.id and c.id = 42`); err != nil {
			b.Fatal(err)
		}
	}
}
