package sdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"qbism/internal/lfm"
	"qbism/internal/obs"
)

// TestParseNeverPanics feeds random byte soup and random token
// recombinations into the parser: anything may be rejected, nothing may
// panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(input string) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Parse(%q) panicked: %v", input, p)
			}
		}()
		Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Token recombinations hit deeper paths than raw bytes.
	vocab := []string{
		"select", "from", "where", "and", "or", "not", "group", "by",
		"order", "limit", "insert", "into", "values", "create", "table",
		"update", "set", "delete", "explain", "count", "(", ")", ",", "*",
		"=", "<", ">", "<=", ">=", "<>", "+", "-", "/", "%", ".", ";",
		"t", "a", "b", "'s'", "1", "2.5", "null", "true", "false", "int",
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		n := rng.Intn(15) + 1
		parts := make([]string, n)
		for j := range parts {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		input := strings.Join(parts, " ")
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse(%q) panicked: %v", input, p)
				}
			}()
			Parse(input)
		}()
	}
}

// TestExecNeverPanics runs random token soup through the full engine
// against a live catalog.
func TestExecNeverPanics(t *testing.T) {
	m, _ := lfm.New(1<<18, 4096)
	db := NewDB(m)
	db.MustExec(`create table t (a int, b string)`)
	db.MustExec(`insert into t values (1, 'x'), (2, 'y')`)
	vocab := []string{
		"select", "from", "where", "group", "by", "order", "limit",
		"count", "sum", "avg", "min", "max", "(", ")", ",", "*", "=",
		"<", ">", "+", "-", "t", "a", "b", "'x'", "1", "2", "desc", "asc",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		n := rng.Intn(12) + 2
		parts := make([]string, n)
		parts[0] = "select"
		for j := 1; j < n; j++ {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		input := strings.Join(parts, " ")
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Exec(%q) panicked: %v", input, p)
				}
			}()
			db.Exec(input)
		}()
	}
}

// TestLexerNeverPanics hammers the tokenizer with adversarial strings.
func TestLexerNeverPanics(t *testing.T) {
	cases := []string{
		"", "'", "''", "'''", "--", "--\n", ".", "..", "...", "1.", ".5",
		"1.2.3", "<", "<=>", "!", "!=", "!!", "\x00", "é'é", "select--",
		"a'b'c", "9999999999999999999999999",
	}
	for _, c := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("lex(%q) panicked: %v", c, p)
				}
			}()
			lex(c)
		}()
	}
	// The overflow literal must be a clean error, not silence.
	if _, err := Parse(`select 9999999999999999999999999 from t`); err == nil {
		t.Error("overflowing integer literal accepted")
	}
}

// ---------------------------------------------------------------------
// Planner equivalence fuzzing: randomized SELECTs (joins, UDFs,
// filters, SELECT *) run through the legacy materializing oracle and
// the Volcano pipeline must return identical results — same rows, same
// order. A pushdown-disabled engine is compared as a multiset (its join
// order legitimately differs). Queries execute from
// several goroutines so `go test -race` checks the read path is clean.

// fuzzEquivDB builds the shared read-only catalog the fuzzer queries.
func fuzzEquivDB() *DB {
	m, _ := lfm.New(1<<18, 4096)
	db := NewDB(m)
	db.MustExec(`create table r (id int, v int, w int, s string, n int)`)
	db.MustExec(`create table q (id int, u int, s2 string)`)
	db.MustExec(`create table p (k int, x int)`)
	strs := []string{"x", "y", "z"}
	for id := 1; id <= 12; id++ {
		n := "null"
		if id%3 != 0 {
			n = fmt.Sprintf("%d", id%5)
		}
		db.MustExec(fmt.Sprintf(`insert into r values (%d, %d, %d, '%s', %s)`,
			id, id*10%7, id%4, strs[id%len(strs)], n))
	}
	for id := 1; id <= 9; id++ {
		s2 := "x"
		if id%2 == 0 {
			s2 = "q"
		}
		db.MustExec(fmt.Sprintf(`insert into q values (%d, %d, '%s')`, id, id%3, s2))
	}
	for id := 1; id <= 7; id++ {
		db.MustExec(fmt.Sprintf(`insert into p values (%d, %d)`, id%5, id*3%11))
	}
	// Pure, total, NULL-safe UDFs.
	db.RegisterUDF(&UDF{Name: "dbl", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *Call, args []Value) (Value, error) {
			if args[0].IsNull() {
				return Null(), nil
			}
			return Int(args[0].I * 2), nil
		}})
	db.RegisterUDF(&UDF{Name: "heavy", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *Call, args []Value) (Value, error) {
			if args[0].IsNull() {
				return Null(), nil
			}
			return Int(args[0].I + 1), nil
		}})
	return db
}

// fuzzQuery is one generated SELECT plus the comparison modes it is
// eligible for.
type fuzzQuery struct {
	sql          string
	multisetOnly bool // star over multiple tables: skip the pushdown-off compare
}

type fuzzTableDef struct {
	name    string
	intCols []string // non-null int columns
	strCols []string
	nullCol string // nullable int column, "" if none
}

var fuzzDefs = []fuzzTableDef{
	{name: "r", intCols: []string{"id", "v", "w"}, strCols: []string{"s"}, nullCol: "n"},
	{name: "q", intCols: []string{"id", "u"}, strCols: []string{"s2"}},
	{name: "p", intCols: []string{"k", "x"}},
}

// genEquivQuery builds one random, error-free SELECT.
func genEquivQuery(rng *rand.Rand) fuzzQuery {
	ntab := 1 + rng.Intn(3)
	perm := rng.Perm(len(fuzzDefs))[:ntab]
	type boundTab struct {
		def   fuzzTableDef
		alias string
	}
	tabs := make([]boundTab, ntab)
	aliases := []string{"ta", "tb", "tc"}
	for i, pi := range perm {
		tabs[i] = boundTab{def: fuzzDefs[pi], alias: aliases[i]}
	}

	intRef := func() string {
		t := tabs[rng.Intn(len(tabs))]
		return t.alias + "." + t.def.intCols[rng.Intn(len(t.def.intCols))]
	}
	var intExpr func(depth int) string
	intExpr = func(depth int) string {
		if depth <= 0 {
			if rng.Intn(3) == 0 {
				return fmt.Sprintf("%d", rng.Intn(20))
			}
			return intRef()
		}
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("(%s %s %s)", intExpr(depth-1), []string{"+", "-", "*"}[rng.Intn(3)], intExpr(depth-1))
		case 1:
			return "dbl(" + intExpr(depth-1) + ")"
		case 2:
			return "heavy(" + intExpr(depth-1) + ")"
		default:
			return intExpr(0)
		}
	}
	strRef := func() (string, bool) {
		var opts []string
		for _, t := range tabs {
			for _, c := range t.def.strCols {
				opts = append(opts, t.alias+"."+c)
			}
		}
		if len(opts) == 0 {
			return "", false
		}
		return opts[rng.Intn(len(opts))], true
	}
	boolExpr := func() string {
		switch rng.Intn(6) {
		case 0: // join or self equality between int columns
			return intRef() + " = " + intRef()
		case 1: // string comparison
			if s, ok := strRef(); ok {
				lit := []string{"x", "y", "z", "q", "nope"}[rng.Intn(5)]
				return fmt.Sprintf("%s = '%s'", s, lit)
			}
			return intExpr(1) + " <> " + intExpr(1)
		case 2: // nullable column, equality-only so it never feeds Less or arith
			for _, t := range tabs {
				if t.def.nullCol != "" {
					op := []string{"=", "<>"}[rng.Intn(2)]
					return fmt.Sprintf("%s.%s %s %d", t.alias, t.def.nullCol, op, rng.Intn(5))
				}
			}
			fallthrough
		case 3:
			op := []string{"<", ">", "<=", ">="}[rng.Intn(4)]
			return intExpr(1) + " " + op + " " + intExpr(1)
		case 4:
			return "not (" + intExpr(0) + " = " + intExpr(0) + ")"
		default: // OR stays inside one conjunct
			return fmt.Sprintf("(%s = %s or %s < %s)", intRef(), intExpr(0), intRef(), intExpr(0))
		}
	}

	var sb strings.Builder
	sb.WriteString("select ")
	multisetOnly := false
	if ntab > 1 && rng.Intn(8) == 0 {
		sb.WriteString("*")
		multisetOnly = true
	} else {
		var items []string
		nitems := 1 + rng.Intn(3)
		for i := 0; i < nitems; i++ {
			if s, ok := strRef(); ok && rng.Intn(4) == 0 {
				items = append(items, s)
			} else {
				items = append(items, intExpr(1+rng.Intn(2)))
			}
		}
		sb.WriteString(strings.Join(items, ", "))
	}
	sb.WriteString(" from ")
	froms := make([]string, len(tabs))
	for i, t := range tabs {
		froms[i] = t.def.name + " " + t.alias
	}
	sb.WriteString(strings.Join(froms, ", "))

	nconj := rng.Intn(4)
	if ntab > 1 && rng.Intn(4) != 0 {
		// Bias toward a real join predicate so cross products stay rare.
		a, b := tabs[0], tabs[1]
		join := fmt.Sprintf("%s.%s = %s.%s",
			a.alias, a.def.intCols[rng.Intn(len(a.def.intCols))],
			b.alias, b.def.intCols[rng.Intn(len(b.def.intCols))])
		conj := []string{join}
		for i := 0; i < nconj; i++ {
			conj = append(conj, boolExpr())
		}
		sb.WriteString(" where " + strings.Join(conj, " and "))
	} else if nconj > 0 {
		conj := make([]string, nconj)
		for i := range conj {
			conj[i] = boolExpr()
		}
		sb.WriteString(" where " + strings.Join(conj, " and "))
	}

	return fuzzQuery{sql: sb.String(), multisetOnly: multisetOnly}
}

// rowsEqual compares two row sets in order, treating nil and empty as
// the same.
func rowsEqual(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// rowsKey renders rows as an order-insensitive multiset fingerprint.
func rowsKey(rows [][]Value) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%d~%s", v.T, v.String())
		}
		lines[i] = strings.Join(parts, "\x1f")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTracedEquivalenceFuzz is the observability differential: the same
// 400 randomized SELECTs run on a traced engine (span collection plus a
// live metrics registry) and an untraced twin, from several goroutines,
// and every result must be identical — same columns, same rows, same
// order. Tracing may observe a query; it may never change one. Under
// `go test -race` this also proves concurrent span and histogram
// updates are clean.
func TestTracedEquivalenceFuzz(t *testing.T) {
	plain := fuzzEquivDB()
	traced := fuzzEquivDB()
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	traced.SetTracer(tracer)
	traced.SetMetrics(reg)

	const numQueries = 400
	rng := rand.New(rand.NewSource(1993))
	queries := make([]fuzzQuery, numQueries)
	for i := range queries {
		queries[i] = genEquivQuery(rng)
	}

	const workers = 4
	var executed int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < numQueries; i += workers {
				fq := queries[i]
				want, errW := plain.Exec(fq.sql)
				root := tracer.Start("fuzz")
				rows, errG := traced.QuerySpan(root, fq.sql)
				var gotCols []string
				var gotRows [][]Value
				if errG == nil {
					gotCols = rows.Columns()
					for rows.Next() {
						row := rows.Row()
						cp := make([]Value, len(row))
						copy(cp, row)
						gotRows = append(gotRows, cp)
					}
					errG = rows.Err()
					rows.Close()
				}
				root.End()
				if (errW == nil) != (errG == nil) {
					t.Errorf("error mismatch for %q:\nuntraced: %v\ntraced:   %v", fq.sql, errW, errG)
					continue
				}
				if errW != nil {
					continue
				}
				atomic.AddInt64(&executed, 1)
				if !reflect.DeepEqual(want.Columns, gotCols) {
					t.Errorf("columns mismatch for %q: %v vs %v", fq.sql, want.Columns, gotCols)
					continue
				}
				if !rowsEqual(want.Rows, gotRows) {
					t.Errorf("traced rows diverged for %q:\nuntraced: %q\ntraced:   %q",
						fq.sql, rowsKey(want.Rows), rowsKey(gotRows))
					continue
				}
				if root.Find("sql.execute") == nil {
					t.Errorf("no sql.execute span for %q", fq.sql)
				}
			}
		}(w)
	}
	wg.Wait()
	if executed == 0 {
		t.Fatal("no generated query executed successfully — the differential is vacuous")
	}
	if got := reg.Counter("sdb_queries_total").Value(); got < executed {
		t.Errorf("sdb_queries_total = %d, want at least the %d successful queries", got, executed)
	}
}

func TestPlannerEquivalenceFuzz(t *testing.T) {
	db := fuzzEquivDB()
	dbOff := fuzzEquivDB()
	dbOff.SetPushdown(false)

	const numQueries = 400
	rng := rand.New(rand.NewSource(1993))
	queries := make([]fuzzQuery, numQueries)
	for i := range queries {
		queries[i] = genEquivQuery(rng)
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < numQueries; i += workers {
				fq := queries[i]
				// The oracle gets an AST of its own: resolveColumns mutates
				// qualifiers in place.
				stmtA, errA := Parse(fq.sql)
				if errA != nil {
					t.Errorf("generated query does not parse: %q: %v", fq.sql, errA)
					continue
				}
				want, errW := oracleExecSelect(db, stmtA.(*SelectStmt), nil)
				got, errG := db.Exec(fq.sql)
				if (errW == nil) != (errG == nil) {
					t.Errorf("error mismatch for %q:\noracle: %v\nengine: %v", fq.sql, errW, errG)
					continue
				}
				if errW != nil {
					continue
				}
				if !reflect.DeepEqual(want.Columns, got.Columns) {
					t.Errorf("columns mismatch for %q:\noracle: %v\nengine: %v", fq.sql, want.Columns, got.Columns)
					continue
				}
				if !rowsEqual(want.Rows, got.Rows) {
					t.Errorf("rows mismatch for %q:\noracle: %d rows %q\nengine: %d rows %q",
						fq.sql, len(want.Rows), rowsKey(want.Rows), len(got.Rows), rowsKey(got.Rows))
					continue
				}
				// Pushdown-off executes a different join order; compare as a
				// multiset where row identity is order-independent.
				if !fq.multisetOnly {
					off, errO := dbOff.Exec(fq.sql)
					if errO != nil {
						t.Errorf("pushdown-off error for %q: %v", fq.sql, errO)
						continue
					}
					if rowsKey(want.Rows) != rowsKey(off.Rows) {
						t.Errorf("pushdown-off multiset mismatch for %q:\noracle: %q\noff:    %q",
							fq.sql, rowsKey(want.Rows), rowsKey(off.Rows))
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// intLiteral matches the integer literals of a generated query. The
// generator's identifiers never end in a bare number (s2 has no word
// boundary before its digit) and its strings hold no digits.
var intLiteral = regexp.MustCompile(`\b\d+\b`)

// parameterize turns a generated query's integer literals into "?"
// placeholders and returns their values as the base bind vector.
func parameterize(sql string) (string, []Value) {
	var binds []Value
	var sb strings.Builder
	last := 0
	for _, loc := range intLiteral.FindAllStringIndex(sql, -1) {
		n, _ := strconv.ParseInt(sql[loc[0]:loc[1]], 10, 64)
		binds = append(binds, Int(n))
		sb.WriteString(sql[last:loc[0]])
		sb.WriteByte('?')
		last = loc[1]
	}
	sb.WriteString(sql[last:])
	return sb.String(), binds
}

// joinKinds reports whether a plan tree holds a hash join (a join with
// keys) and a nested loop (one without): the operators that keep rows
// between calls, and capacity between executions.
func joinKinds(n planNode) (hash, loop bool) {
	switch pn := n.(type) {
	case *filterNode:
		return joinKinds(pn.child)
	case *joinNode:
		lh, ll := joinKinds(pn.left)
		rh, rl := joinKinds(pn.right)
		return lh || rh || len(pn.leftKeys) > 0, ll || rl || len(pn.leftKeys) == 0
	}
	return false, false
}

// fuzzOutcome is what one (query, bind vector) pair must produce.
type fuzzOutcome struct {
	cols []string
	rows [][]Value
	err  bool
}

func drain(rows *Rows, err error) fuzzOutcome {
	if err != nil {
		return fuzzOutcome{err: true}
	}
	defer rows.Close()
	out := fuzzOutcome{cols: rows.Columns()}
	for rows.Next() {
		out.rows = append(out.rows, append([]Value(nil), rows.Row()...))
	}
	out.err = rows.Err() != nil
	return out
}

func (o fuzzOutcome) equal(p fuzzOutcome) bool {
	if o.err || p.err {
		return o.err == p.err
	}
	return reflect.DeepEqual(o.cols, p.cols) && rowsEqual(o.rows, p.rows)
}

// TestPreparedEquivalenceFuzz is the prepared-vs-one-shot differential:
// each of the 400 generated SELECTs, its integer literals turned into
// bind parameters, is prepared once and then executed with three
// different bind vectors by each of four goroutines sharing the one
// *Stmt. Every execution must match both the legacy materializing
// oracle and the one-shot DB.Query on the same text and binds — same
// columns, same rows, same order, same error-or-not. Under -race this
// is the proof that a compiled plan is read-only.
func TestPreparedEquivalenceFuzz(t *testing.T) {
	db := fuzzEquivDB()
	const (
		numQueries = 400
		numVectors = 3
		workers    = 4
	)
	rng := rand.New(rand.NewSource(1993))
	type prepared struct {
		sql   string
		stmt  *Stmt
		binds [numVectors][]Value
		want  [numVectors]fuzzOutcome
	}
	cases := make([]prepared, numQueries)
	for i := range cases {
		c := &cases[i]
		var base []Value
		c.sql, base = parameterize(genEquivQuery(rng).sql)
		for v := range c.binds {
			// Vector 0 is the generated query itself; the others shift
			// every literal, so filters select different rows.
			c.binds[v] = make([]Value, len(base))
			for j, b := range base {
				c.binds[v][j] = Int(b.I + int64(v*(j+1)))
			}
		}
		stmt, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", c.sql, err)
		}
		c.stmt = stmt
		for v, binds := range c.binds {
			ast, err := Parse(c.sql)
			if err != nil {
				t.Fatalf("parameterized query does not parse: %q: %v", c.sql, err)
			}
			oracle := fuzzOutcome{err: true}
			if res, err := oracleExecSelect(db, ast.(*SelectStmt), binds); err == nil {
				oracle = fuzzOutcome{cols: res.Columns, rows: res.Rows}
			}
			c.want[v] = drain(db.Query(c.sql, binds...))
			if !c.want[v].equal(oracle) {
				t.Errorf("one-shot diverged from the oracle for %q %v:\noracle:   %q\none-shot: %q",
					c.sql, binds, rowsKey(oracle.rows), rowsKey(c.want[v].rows))
			}
		}
	}

	// A serial pass first, where reuse is certain: the first vector builds
	// the statement's operator tree, the others run on that same tree —
	// whatever the statement is made of.
	var reusedHash, reusedLoop int
	for i := range cases {
		c := &cases[i]
		for v, binds := range c.binds {
			if got := drain(c.stmt.Query(nil, binds...)); !got.equal(c.want[v]) {
				t.Errorf("serial prepared execution %d diverged for %q %v:\nwant: %q\ngot:  %q",
					v, c.sql, binds, rowsKey(c.want[v].rows), rowsKey(got.rows))
			}
			if n := len(idleTrees(c.stmt)); n != 1 {
				t.Fatalf("%d idle trees after serial execution %d of %q, want 1", n, v, c.sql)
			}
		}
		hash, loop := joinKinds(c.stmt.plan.Load().sel.tree)
		if hash {
			reusedHash++
		}
		if loop {
			reusedLoop++
		}
	}
	t.Logf("statements re-executed on a retained tree: %d with a hash join, %d with a nested loop", reusedHash, reusedLoop)
	if reusedHash == 0 || reusedLoop == 0 {
		t.Fatal("reuse of a hash join's table or a nested loop's right side is not exercised")
	}

	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts elsewhere, so at any moment the four are
			// inside different statements — and now and then the same one.
			for n := 0; n < numQueries; n++ {
				c := &cases[(n+w*numQueries/workers)%numQueries]
				for v := 0; v < numVectors; v++ {
					v := (v + w) % numVectors
					got := drain(c.stmt.Query(nil, c.binds[v]...))
					if !got.equal(c.want[v]) {
						t.Errorf("prepared execution diverged for %q %v:\nwant: %q\ngot:  %q",
							c.sql, c.binds[v], rowsKey(c.want[v].rows), rowsKey(got.rows))
					}
					if !got.err {
						executed.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	bound := 0
	for i := range cases {
		if len(cases[i].binds[0]) > 0 {
			bound++
		}
	}
	for i := range cases {
		// 12 concurrent executions each, on at most one tree per worker.
		if n := len(idleTrees(cases[i].stmt)); n < 1 || n > workers {
			t.Errorf("%d idle trees for %q after the concurrent pass, want 1..%d", n, cases[i].sql, workers)
		}
	}
	t.Logf("%d of %d statements carry bind parameters; %d of %d prepared executions returned rows without error",
		bound, numQueries, executed.Load(), numQueries*numVectors*workers)
	if bound < numQueries/2 || executed.Load() < numQueries*workers {
		t.Fatal("the differential is close to vacuous")
	}
}
