package sdb

import (
	"fmt"
	"math"
	"strings"

	"qbism/internal/lfm"
)

// The physical executor: Volcano-style iterators. A compiled plan is
// instantiated into one operator per plan node, and the tree then runs
// one execution after another (see execution); rows flow upward one at
// a time, and only a join keeps rows: its hash table or its nested
// loop's right side.
// Every operator carries its own counters — rows in/out, UDF calls, and
// the LFM pages read while evaluating its expressions — which EXPLAIN
// ANALYZE reports per node.

// opStats are the per-operator runtime counters.
type opStats struct {
	rowsIn   int64
	rowsOut  int64
	udfCalls int64
	lfmPages int64
	probes   int64 // compressed-representation fast-path answers
}

// tuple is the unit of data flow: one row reference per FROM entry,
// indexed by join position (the slot column references were bound to),
// and the projected output row once the root has run.
//
// rows is the producing operator's own buffer, overwritten in place: a
// tuple is valid until that operator's next call to next. The joins,
// which keep rows across calls — hash build, the nested loop's right
// side — keep the table rows, not the buffer.
type tuple struct {
	rows [][]Value
	out  []Value // set by the projection root
}

// operator is a Volcano iterator. kids returns its inputs (left, right),
// nil where it has none.
type operator interface {
	open() error
	next() (tuple, bool, error)
	close()
	describe() string
	kids() (operator, operator)
	stats() *opStats
	reset()
}

// opBase carries the pieces every operator shares and charges
// expression evaluation to the operator's counters.
type opBase struct {
	st opStats
	ev env
	x  *execution
}

func (b *opBase) stats() *opStats { return &b.st }

// bind points the operator's evaluation context at the execution it
// was built for, once: a later run refills x.params in place.
func (b *opBase) bind(x *execution) {
	b.ev = env{db: x.db, params: x.params, call: Call{io: &x.io, st: &b.st, sites: x.sites}, stack: &x.args}
	b.x = x
}

// reset drops what the finished run left in the base: its counters and
// the last tuple evaluated.
func (b *opBase) reset() {
	b.st = opStats{}
	b.ev.rows = nil
}

// evalIn evaluates x against the tuple on this operator's account: its
// UDFs charge their calls and probes to it as they happen, and the pages
// the execution's bill grows by meanwhile are its pages — exactly, since
// only this goroutine adds to that bill.
func (b *opBase) evalIn(t tuple, x Expr) (Value, error) {
	b.ev.rows = t.rows
	pages := b.x.io.PageReads
	v, err := b.ev.eval(x)
	b.st.lfmPages += int64(b.x.io.PageReads - pages)
	return v, err
}

// evalPred evaluates a predicate that must produce BOOL.
func (b *opBase) evalPred(t tuple, x Expr) (bool, error) {
	v, err := b.evalIn(t, x)
	if err != nil {
		return false, err
	}
	if v.T != TBool {
		return false, fmt.Errorf("sdb: WHERE conjunct is %s, not BOOL", v.T)
	}
	return v.B, nil
}

// scanOp reads one table's rows in storage order.
type scanOp struct {
	opBase
	src  source
	slot int
	buf  [][]Value // output tuple: only buf[slot] is ever set
	i    int
}

func (o *scanOp) open() error {
	o.i = 0
	return nil
}

func (o *scanOp) next() (tuple, bool, error) {
	if o.i >= len(o.src.table.Rows) {
		return tuple{}, false, nil
	}
	o.buf[o.slot] = o.src.table.Rows[o.i]
	o.i++
	o.st.rowsOut++
	return tuple{rows: o.buf}, true, nil
}

func (o *scanOp) close() {}

func (o *scanOp) describe() string {
	s := "scan " + o.src.table.Name
	if !strings.EqualFold(o.src.alias, o.src.table.Name) {
		s += " as " + o.src.alias
	}
	return fmt.Sprintf("%s (%d rows)", s, len(o.src.table.Rows))
}

func (o *scanOp) kids() (operator, operator) { return nil, nil }

// filterOp passes rows satisfying all its predicates, in order.
type filterOp struct {
	opBase
	child  operator
	preds  []Expr
	pushed bool
}

func (o *filterOp) open() error { return o.child.open() }

func (o *filterOp) next() (tuple, bool, error) {
	for {
		t, ok, err := o.child.next()
		if err != nil || !ok {
			return tuple{}, false, err
		}
		o.st.rowsIn++
		pass := true
		for _, p := range o.preds {
			hit, err := o.evalPred(t, p)
			if err != nil {
				return tuple{}, false, err
			}
			if !hit {
				pass = false
				break
			}
		}
		if pass {
			o.st.rowsOut++
			return t, true, nil
		}
	}
}

func (o *filterOp) close() { o.child.close() }

func (o *filterOp) describe() string {
	parts := make([]string, len(o.preds))
	for i, p := range o.preds {
		parts[i] = exprString(p)
	}
	s := "filter " + strings.Join(parts, " and ")
	if o.pushed {
		s += " [pushed]"
	}
	return s
}

func (o *filterOp) kids() (operator, operator) { return o.child, nil }

// hashJoinOp joins on equality keys: it lazily builds a hash table
// over the right input, then streams the left input and probes. Rows
// come out in left-major, right-scan-order — the same order the
// nested loop would produce.
//
// The right input is always one FROM entry (a scan, maybe filtered), so
// the build side keeps just that entry's row per input tuple, plus its
// key values for the exact Equal re-check on probe: the 64-bit hash only
// picks the bucket. The table is chained hashing laid out in flat
// slices — entries in arrival order, a power-of-two array of bucket
// heads, one next-link per entry — so a build allocates a handful of
// slices, never per row, and a tree that has run before allocates none:
// close keeps their capacity. Only capacity: the table is rebuilt on
// every execution, because the build side's filter reads the bind
// vector and its table may have changed in between.
type hashJoinOp struct {
	opBase
	left, right operator
	leftKeys    []Expr
	rightKeys   []Expr
	slot        int // the right input's tuple slot

	built bool
	rows  [][]Value // build-side rows, one per entry
	keys  []Value   // their key values, len(rightKeys) per entry
	links []int32   // backing of heads and chain
	heads []int32   // first entry of bucket hash&(len(heads)-1); -1 = empty
	chain []int32   // next entry in the same bucket, in arrival order; -1 ends

	buf   [][]Value // output tuple: the current left rows, then the match
	probe []Value   // the current left row's key values
	cur   int32     // next entry to try for the current left row; -1 = pull a new one
}

func (o *hashJoinOp) open() error {
	if err := o.left.open(); err != nil {
		return err
	}
	if err := o.right.open(); err != nil {
		return err
	}
	o.built, o.rows, o.keys = false, o.rows[:0], o.keys[:0]
	o.cur = -1
	return nil
}

// evalKeys appends t's values for the key expressions to dst. ok is
// false when a key is NULL: NULL never equals anything, so the row
// cannot match, and dst comes back unextended.
func (o *hashJoinOp) evalKeys(t tuple, keys []Expr, dst []Value) (out []Value, ok bool, err error) {
	base := len(dst)
	for _, kx := range keys {
		v, err := o.evalIn(t, kx)
		if err != nil {
			return dst[:base], false, err
		}
		if v.IsNull() {
			return dst[:base], false, nil
		}
		dst = append(dst, v)
	}
	return dst, true, nil
}

// build drains the right input into the hash table. Deferred until the
// first left row arrives so an empty left side never evaluates right
// key expressions — matching the nested-loop evaluation order.
func (o *hashJoinOp) build() error {
	// An unfiltered right side yields exactly its table's rows: make
	// room for them once instead of growing into it.
	if sc, ok := o.right.(*scanOp); ok && cap(o.rows) < len(sc.src.table.Rows) {
		n := len(sc.src.table.Rows)
		o.rows, o.keys = make([][]Value, 0, n), make([]Value, 0, n*len(o.rightKeys))
	}
	for {
		t, ok, err := o.right.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		o.st.rowsIn++
		var keyed bool
		if o.keys, keyed, err = o.evalKeys(t, o.rightKeys, o.keys); err != nil {
			return err
		}
		if keyed {
			o.rows = append(o.rows, t.rows[o.slot])
		}
	}
	// At most half full. Linking the entries last to first leaves each
	// chain in arrival order.
	n, size := len(o.rows), 1
	for size < 2*n {
		size <<= 1
	}
	if cap(o.links) < size+n {
		o.links = make([]int32, size+n)
	}
	o.heads, o.chain = o.links[:size], o.links[size:size+n]
	for b := range o.heads {
		o.heads[b] = -1
	}
	nk := len(o.rightKeys)
	for i := n - 1; i >= 0; i-- {
		b := hashValues(o.keys[i*nk:(i+1)*nk]) & uint64(size-1)
		o.chain[i] = o.heads[b]
		o.heads[b] = int32(i)
	}
	o.built = true
	return nil
}

func (o *hashJoinOp) next() (tuple, bool, error) {
	nk := len(o.leftKeys)
	for {
		for o.cur >= 0 {
			i := int(o.cur)
			o.cur = o.chain[i]
			// Re-check with SQL equality: the hash is only a bucketing
			// heuristic, and distinct hashes share a bucket too.
			match := true
			for k, lv := range o.probe {
				if !lv.Equal(o.keys[i*nk+k]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			o.buf[o.slot] = o.rows[i]
			o.st.rowsOut++
			return tuple{rows: o.buf}, true, nil
		}
		t, ok, err := o.left.next()
		if err != nil || !ok {
			return tuple{}, false, err
		}
		o.st.rowsIn++
		if !o.built {
			if err := o.build(); err != nil {
				return tuple{}, false, err
			}
		}
		var keyed bool
		if o.probe, keyed, err = o.evalKeys(t, o.leftKeys, o.probe[:0]); err != nil {
			return tuple{}, false, err
		}
		if !keyed {
			continue
		}
		copy(o.buf[:o.slot], t.rows)
		o.cur = o.heads[hashValues(o.probe)&uint64(len(o.heads)-1)]
	}
}

func (o *hashJoinOp) close() {
	o.left.close()
	o.right.close()
	o.rows, o.keys, o.probe = emptied(o.rows), emptied(o.keys), emptied(o.probe)
}

// emptied returns s with every element it has room for zeroed and its
// length 0: what an operator keeps of a slice between executions is
// the capacity, never the rows, keys or blobs it pointed at.
func emptied[E any](s []E) []E {
	clear(s[:cap(s)])
	return s[:0]
}

func (o *hashJoinOp) describe() string {
	parts := make([]string, len(o.leftKeys))
	for i := range o.leftKeys {
		parts[i] = exprString(o.leftKeys[i]) + " = " + exprString(o.rightKeys[i])
	}
	return "hash join on " + strings.Join(parts, ", ")
}

func (o *hashJoinOp) kids() (operator, operator) { return o.left, o.right }

// hashValues hashes join-key values into a bucket id consistent with
// Value.Equal: ints and floats that compare equal hash alike (both go
// through float64, as Equal does, with -0 folded onto +0), and every
// other type hashes its payload under a per-type tag. FNV-1a, so the
// bucket of a key is the same in every process.
func hashValues(vals []Value) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vals {
		switch v.T {
		case TInt, TFloat:
			f, _ := v.numeric()
			if f == 0 {
				f = 0
			}
			h = fnvWord(h, 'n', math.Float64bits(f))
		case TString:
			h = (h ^ 's') * fnvPrime
			for i := 0; i < len(v.S); i++ {
				h = (h ^ uint64(v.S[i])) * fnvPrime
			}
		case TBytes:
			h = (h ^ 'y') * fnvPrime
			for _, c := range v.Y {
				h = (h ^ uint64(c)) * fnvPrime
			}
		case TBool:
			var w uint64
			if v.B {
				w = 1
			}
			h = fnvWord(h, 'b', w)
		case TLong:
			h = fnvWord(h, 'l', uint64(v.L))
		default:
			h = fnvWord(h, '?', uint64(v.T))
		}
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds a type tag and a 64-bit payload into h.
func fnvWord(h uint64, tag byte, w uint64) uint64 {
	h = (h ^ uint64(tag)) * fnvPrime
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

// nlJoinOp is the nested-loop fallback for joins with no usable
// equality key. The right side is materialized lazily on the first
// left row and re-scanned per left row.
type nlJoinOp struct {
	opBase
	left, right operator
	slot        int // the right input's tuple slot

	rightRows   [][]Value // the right input's rows, one per tuple
	rightLoaded bool
	buf         [][]Value // output tuple: the current left rows, then a right row
	curOK       bool
	ri          int
}

func (o *nlJoinOp) open() error {
	if err := o.left.open(); err != nil {
		return err
	}
	if err := o.right.open(); err != nil {
		return err
	}
	o.rightRows, o.rightLoaded = o.rightRows[:0], false
	o.curOK, o.ri = false, 0
	return nil
}

func (o *nlJoinOp) loadRight() error {
	for {
		t, ok, err := o.right.next()
		if err != nil {
			return err
		}
		if !ok {
			o.rightLoaded = true
			return nil
		}
		o.st.rowsIn++
		o.rightRows = append(o.rightRows, t.rows[o.slot])
	}
}

func (o *nlJoinOp) next() (tuple, bool, error) {
	for {
		if o.curOK && o.ri < len(o.rightRows) {
			o.buf[o.slot] = o.rightRows[o.ri]
			o.ri++
			o.st.rowsOut++
			return tuple{rows: o.buf}, true, nil
		}
		o.curOK = false
		t, ok, err := o.left.next()
		if err != nil || !ok {
			return tuple{}, false, err
		}
		o.st.rowsIn++
		if !o.rightLoaded {
			if err := o.loadRight(); err != nil {
				return tuple{}, false, err
			}
		}
		copy(o.buf[:o.slot], t.rows)
		o.curOK, o.ri = true, 0
	}
}

func (o *nlJoinOp) close() {
	o.left.close()
	o.right.close()
	o.rightRows = emptied(o.rightRows)
}

func (o *nlJoinOp) describe() string { return "nested loop join" }

func (o *nlJoinOp) kids() (operator, operator) { return o.left, o.right }

// projectOp is the pipeline root: it evaluates the select list into
// the output row. Because it sits above the scan/filter/join tree,
// expensive projection expressions (EXTRACT_DATA and friends) run only
// for rows that survive every filter.
type projectOp struct {
	opBase
	child   operator
	items   []SelectItem
	columns []string
	// out is the output row, one Value per column, overwritten by every
	// next: Rows.Next hands out a copy, Stmt.QueryRow copies it into its
	// caller's row.
	out []Value
}

func (o *projectOp) open() error { return o.child.open() }

func (o *projectOp) next() (tuple, bool, error) {
	t, ok, err := o.child.next()
	if err != nil || !ok {
		return tuple{}, false, err
	}
	o.st.rowsIn++
	out := o.out[:0]
	for _, item := range o.items {
		if item.Star {
			for _, row := range t.rows {
				out = append(out, row...)
			}
			continue
		}
		v, err := o.evalIn(t, item.Expr)
		if err != nil {
			return tuple{}, false, err
		}
		out = append(out, v)
	}
	t.out = out
	o.st.rowsOut++
	return t, true, nil
}

func (o *projectOp) close() { o.child.close() }

// reset also drops the last output row.
func (o *projectOp) reset() {
	o.opBase.reset()
	clear(o.out[:cap(o.out)])
}

func (o *projectOp) describe() string {
	// Render the full select-list expressions, not the column labels: a
	// label compresses extractVoxels(wv.data, ib.region) to its bare
	// function name, and the plan reader needs to see what the
	// projection actually evaluates.
	parts := make([]string, len(o.items))
	for i, item := range o.items {
		if item.Star {
			parts[i] = "*"
		} else {
			parts[i] = exprString(item.Expr)
		}
	}
	return "project [" + strings.Join(parts, ", ") + "]"
}

func (o *projectOp) kids() (operator, operator) { return o.child, nil }

// execution is one instantiated operator tree of a compiled plan and
// what its operators share: the bind buffer, the long-field account and
// the backing store their tuple buffers are cut from. It runs one query at
// a time; between runs the compiled statement keeps it idle (see
// compiled.take), with the capacity its operators grew and none of the
// contents.
type execution struct {
	db     *DB
	root   *projectOp
	params []Value // this run's bind values, copied in: the caller's slice is never kept
	// io is this run's bill: every long field a UDF reads, it reads
	// through here (Call.IO). A traced run also keeps it per field.
	io lfm.IO
	// args are the argument vectors of every UDF call its operators
	// make, and empty between calls.
	args argStack
	// sites are the working memory of its call sites (Call.State), one
	// per FuncCall.site, each made on its site's first call.
	sites []SiteState

	width   int       // tuple width: the plan's FROM entries
	bufs    [][]Value // one width-sized buffer per scan and join, back to back
	claimed int       // bufs[:claimed] has been handed out by tupleBuf
}

// tupleBuf claims the next tuple buffer.
func (x *execution) tupleBuf() [][]Value {
	end := x.claimed + x.width
	buf := x.bufs[x.claimed:end:end]
	x.claimed = end
	return buf
}

// clear drops what the finished run left outside the operators' own
// state, which close has emptied already: an idle execution holds no
// table row, no bound string, no BYTES blob and nothing its call sites
// read or built.
func (x *execution) clear() {
	clear(x.params)
	clear(x.bufs)
	x.io.Reset()
	for _, s := range x.sites {
		if s != nil {
			s.Reset()
		}
	}
	eachOp(x.root, operator.reset)
}

// eachOp calls f on op and every operator below it, parents first.
func eachOp(op operator, f func(operator)) {
	f(op)
	left, right := op.kids()
	if left != nil {
		eachOp(left, f)
	}
	if right != nil {
		eachOp(right, f)
	}
}

// build instantiates the operator for one node of the scan/filter/join
// tree.
func (x *execution) build(n planNode) operator {
	switch pn := n.(type) {
	case *scanNode:
		op := &scanOp{src: pn.src, slot: pn.slot, buf: x.tupleBuf()}
		op.bind(x)
		return op
	case *filterNode:
		op := &filterOp{child: x.build(pn.child), preds: pn.preds, pushed: pn.pushed}
		op.bind(x)
		return op
	case *joinNode:
		left, right := x.build(pn.left), x.build(pn.right)
		if len(pn.leftKeys) > 0 {
			op := &hashJoinOp{
				left:      left,
				right:     right,
				leftKeys:  pn.leftKeys,
				rightKeys: pn.rightKeys,
				slot:      pn.slot,
				buf:       x.tupleBuf(),
			}
			op.bind(x)
			return op
		}
		op := &nlJoinOp{left: left, right: right, slot: pn.slot, buf: x.tupleBuf()}
		op.bind(x)
		return op
	default:
		panic(fmt.Sprintf("sdb: unknown plan node %T", n))
	}
}

// instantiate builds an operator tree for the plan, with room for
// nparams bind values. The plan itself is shared and read-only;
// everything mutable — cursors, counters, tuple buffers, hash tables —
// lives in the operators.
func (p *selectPlan) instantiate(db *DB, nparams int) *execution {
	// n scans and n-1 joins each own a tuple buffer.
	n := len(p.ordered)
	x := &execution{db: db, params: make([]Value, nparams), io: lfm.IO{M: db.lfm}, sites: make([]SiteState, p.sites),
		width: n, bufs: make([][]Value, n*(2*n-1))}
	x.root = &projectOp{child: x.build(p.tree), items: p.stmt.Exprs, columns: p.columns, out: make([]Value, 0, len(p.columns))}
	x.root.bind(x)
	return x
}
