package sdb

import (
	"fmt"
	"strings"
	"sync/atomic"

	"qbism/internal/lfm"
	"qbism/internal/obs"
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Table holds a schema and its rows. Row storage is a plain heap — the
// paper's experiments deliberately create no indexes ("We did not create
// indexes on any of the relation columns").
type Table struct {
	Name    string
	Columns []Column
	Rows    [][]Value

	colIndex map[string]int
}

// ColumnIndex returns the position of the named column (case-insensitive)
// or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// DB is a database instance: a catalog of tables, a user-defined
// function registry, and the long field manager large objects live in.
type DB struct {
	tables map[string]*Table
	udfs   map[string]*UDF
	lfm    *lfm.Manager

	noPushdown bool // zero value = predicate pushdown enabled

	// gen is the catalog generation: it advances whenever something a
	// compiled plan depends on changes — a table appears, a UDF is
	// (re)registered, pushdown is toggled — and a prepared statement
	// whose plan carries an older generation re-plans before it runs.
	gen atomic.Uint64

	// tracer, when non-nil, gives each SELECT a span tree: parse, plan,
	// and execute phases, with one span per physical operator carrying
	// its runtime counters. m holds the metrics instruments, resolved
	// once by SetMetrics; they are nil (no-ops) without a registry.
	tracer *obs.Tracer
	m      dbMetrics
}

// dbMetrics are the registry instruments the query path updates: query
// and UDF call counts and the per-operator row histogram.
type dbMetrics struct {
	queries, queryErrors    *obs.Counter
	udfCalls, udfProbeCalls *obs.Counter
	opRows                  *obs.Histogram
}

// NewDB creates an empty database backed by the given long field
// manager (which may be nil if no LONG columns or spatial UDFs are used).
func NewDB(m *lfm.Manager) *DB {
	return &DB{
		tables: make(map[string]*Table),
		udfs:   make(map[string]*UDF),
		lfm:    m,
	}
}

// SetPushdown toggles predicate pushdown in the planner. With it off,
// SELECTs join in FROM order with nested loops and evaluate the whole
// WHERE clause on top — the naive plan, kept for benchmarking the
// optimizer against itself. Not safe to call concurrently with queries.
func (db *DB) SetPushdown(on bool) {
	db.noPushdown = !on
	db.gen.Add(1)
}

// SetTracer installs (or with nil, removes) the tracer SELECTs are
// traced with. Like SetPushdown, not safe to call concurrently with
// queries; once installed, tracing itself is concurrency-safe (each
// query's spans are private to its Rows).
func (db *DB) SetTracer(t *obs.Tracer) { db.tracer = t }

// SetMetrics installs (or with nil, removes) the metrics registry,
// looking its instruments up once so the query path never does.
// Same concurrency contract as SetTracer.
func (db *DB) SetMetrics(r *obs.Registry) {
	db.m = dbMetrics{
		queries:       r.Counter("sdb_queries_total"),
		queryErrors:   r.Counter("sdb_query_errors_total"),
		udfCalls:      r.Counter("sdb_udf_calls_total"),
		udfProbeCalls: r.Counter("sdb_udf_probe_calls_total"),
		opRows:        r.Histogram("sdb_operator_rows", obs.RowBuckets),
	}
}

// Table looks up a table by name (case-insensitive).
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sdb: unknown table %q", name)
	}
	return t, nil
}

// TableNames returns the catalog's table names (unsorted).
func (db *DB) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	return names
}

// CreateTable registers a new table.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("sdb: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sdb: table %q needs at least one column", name)
	}
	t := &Table{Name: name, Columns: cols, colIndex: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIndex[lc]; dup {
			return nil, fmt.Errorf("sdb: duplicate column %q in table %q", c.Name, name)
		}
		t.colIndex[lc] = i
	}
	db.tables[key] = t
	db.gen.Add(1)
	return t, nil
}

// InsertRow appends a row to a table after type-coercing each value
// against the schema.
func (db *DB) InsertRow(tableName string, vals []Value) error {
	t, err := db.Table(tableName)
	if err != nil {
		return err
	}
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("sdb: table %q has %d columns, got %d values", t.Name, len(t.Columns), len(vals))
	}
	row := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := v.coerceTo(t.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("sdb: column %q: %v", t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// RegisterUDF adds a user-defined SQL function to the database — the
// Starburst extensibility hook the paper's spatial operators use.
// Names are case-insensitive; re-registration replaces.
func (db *DB) RegisterUDF(u *UDF) error {
	if u.Name == "" || u.Fn == nil {
		return fmt.Errorf("sdb: UDF needs a name and a function")
	}
	db.udfs[strings.ToLower(u.Name)] = u
	db.gen.Add(1)
	return nil
}

// UDF is a user-defined SQL function. Fn receives its Call (for
// long-field access billed to the statement running it, and the call
// site's working memory) and the evaluated arguments, which are valid
// for the call only: the vector is the execution's, reused by the next
// call, so Fn copies out any value it keeps. An argument that is itself
// a call arrives as that call returned it, an Object included; Fn may
// return an Object for the calls around it to take the same way.
//
// What Fn returns may point into its call site's state (Call.State)
// only if it is an Object, and then it is valid until that site runs
// again — which is after the call around it has returned, since every
// call site appears once in its statement. Any other value Fn returns,
// BYTES included, is the caller's to keep.
//
// Cost is an optional planner hint: same-node filter predicates run
// cheapest-first, so an expensive extraction function should carry a
// high Cost and a fast region test a low one. Zero is fine for trivial
// functions.
type UDF struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	Cost    int
	// ProbeOnly marks functions that only probe REGION membership or
	// coverage (CONTAINS-style) and never need a materialized run list.
	// Calls to them are the demand the queryable k³-tree encoding
	// serves; the sdb_udf_probe_calls_total metric counts them.
	ProbeOnly bool
	Fn        func(c *Call, args []Value) (Value, error)
	// State, when set, makes a call site's working memory: an execution
	// calls it on the site's first call and hands the result to every
	// later call of that site through Call.State (nil without it).
	State func() SiteState
}

// SiteState is the working memory of one call site of a statement —
// buffers its function reads, parses and builds results into instead of
// allocating them per call. An execution owns one per call site whose
// function has a State hook, and it lives as long as the execution's
// operator tree: from one execution to the next, like the tree's hash
// tables.
type SiteState interface {
	// Reset runs when the tree goes idle. It drops every reference the
	// state holds — field bytes, parsed forms, results — and keeps the
	// capacity of its buffers, except that a buffer larger than
	// MaxIdleBytes is released, so that one large call pins nothing
	// while the statement idles.
	Reset()
}

// MaxIdleBytes is the largest buffer a SiteState keeps across Reset:
// the transport's rule for a connection's frame scratch.
const MaxIdleBytes = 64 << 10

// lookupUDF finds a registered function by name. Plans call it when
// they bind; execution uses the bound pointer.
func (db *DB) lookupUDF(name string) (*UDF, bool) {
	u, ok := db.udfs[strings.ToLower(name)]
	return u, ok
}
