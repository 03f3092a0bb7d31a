// The k³-tree REGION encoding (Brisaboa et al., "Extending General
// Compact Queryable Representations to GIS Applications", adapted to
// curve-id space): an octree of per-level bitmaps that answers
// membership and range queries directly on the encoded bytes.
//
// Both Hilbert and Z curves map every aligned id block
// [j·8^r, (j+1)·8^r) to an axis-aligned cube of side 2^r, so an octree
// over id space IS a spatial octree: node (level ℓ, slot j) covers the
// id interval [base, base+span) with span = degree^(bits-ℓ) and
// degree = 2^dim. The payload is:
//
//	byte 0:            root color — 0 empty, 1 full, 2 gray
//	for each level ℓ = 1..bits while gray nodes remain:
//	    F_ℓ  full bitmap, one bit per child slot, byte-padded
//	    M_ℓ  mixed bitmap (omitted at the leaf level), byte-padded
//
// Level ℓ holds degree·(number of mixed slots at level ℓ-1) slots, in
// BFS order; the children of the j-th slot whose M bit is set start at
// slot degree·rank₁(M_ℓ, j) of level ℓ+1. ParseK3 rebuilds a
// bitio.RankIndex per M bitmap at parse time — the directories are
// probe-side state, never stored, which keeps the encoded size
// competitive with the delta codecs. Decode builds none: a depth-first
// walk of the whole tree meets each level's groups in the order the
// level stores them, so a per-level cursor stands in for rank₁ (see
// runs).
//
// The encoding is canonical and the parser enforces it: a full or
// empty subtree must collapse into its parent (no all-full or
// all-empty child group under a gray node), F and M are disjoint,
// padding bits are zero, there are no trailing bytes, and the header
// count must equal the voxel total implied by the F bitmaps. Canonical
// form is what makes Decode→Encode byte-identical, which the fuzz
// harness relies on.
package rencode

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

// Root color byte of the k³-tree payload.
const (
	k3Empty = 0
	k3Full  = 1
	k3Gray  = 2
)

// k3Classify labels a child interval [lo, hi] against the sorted run
// list, advancing *ri past runs that end before lo. Because the walk
// visits child intervals in globally increasing id order, one pointer
// serves the whole level sweep.
func k3Classify(runs []region.Run, ri *int, lo, hi uint64) byte {
	for *ri < len(runs) && runs[*ri].Hi < lo {
		*ri++
	}
	switch {
	case *ri >= len(runs) || runs[*ri].Lo > hi:
		return k3Empty
	case runs[*ri].Lo <= lo && runs[*ri].Hi >= hi:
		return k3Full
	default:
		return k3Gray
	}
}

// encodeK3 serializes r's octree payload (no header).
func encodeK3(r *region.Region) []byte {
	c := r.Curve()
	dim, nbits := c.Dim(), c.Bits()
	degree := 1 << uint(dim)
	runs := r.RunsView()
	switch {
	case len(runs) == 0:
		return []byte{k3Empty}
	case len(runs) == 1 && runs[0].Lo == 0 && runs[0].Hi == c.Length()-1:
		return []byte{k3Full}
	}
	payload := []byte{k3Gray}
	grays := []uint64{0}
	for lvl := 1; lvl <= nbits && len(grays) > 0; lvl++ {
		span := uint64(1) << uint(dim*(nbits-lvl))
		leaf := lvl == nbits
		var fw, mw bitio.Writer
		var next []uint64
		ri := 0
		for _, g := range grays {
			for child := 0; child < degree; child++ {
				lo := g + uint64(child)*span
				switch k3Classify(runs, &ri, lo, lo+span-1) {
				case k3Empty:
					fw.WriteBit(0)
					if !leaf {
						mw.WriteBit(0)
					}
				case k3Full:
					fw.WriteBit(1)
					if !leaf {
						mw.WriteBit(0)
					}
				default: // gray; unreachable at the leaf, where span is 1
					fw.WriteBit(0)
					mw.WriteBit(1)
					next = append(next, lo)
				}
			}
		}
		payload = append(payload, fw.Bytes()...)
		if !leaf {
			payload = append(payload, mw.Bytes()...)
		}
		grays = next
	}
	return payload
}

// k3PayloadSize returns len(encodeK3(r)) without materializing the
// bitmaps, or anything else: a depth-first classification sweep counts
// the gray nodes of each level, which size the level below.
func k3PayloadSize(r *region.Region) int {
	c := r.Curve()
	dim, nbits := c.Dim(), c.Bits()
	degree := 1 << uint(dim)
	runs := r.RunsView()
	switch {
	case len(runs) == 0, len(runs) == 1 && runs[0].Lo == 0 && runs[0].Hi == c.Length()-1:
		return 1
	}
	var grays [k3MaxLevels + 1]int // grays[l]: the gray nodes of level l, the root's being 0
	grays[0] = 1
	ri := 0
	k3CountGrays(runs, &ri, &grays, dim, nbits, 1, 0)
	size := 1
	for lvl := 1; lvl <= nbits && grays[lvl-1] > 0; lvl++ {
		nb := (degree*grays[lvl-1] + 7) / 8
		if lvl == nbits {
			size += nb
		} else {
			size += 2 * nb
		}
	}
	return size
}

// k3CountGrays counts into grays the gray nodes below the gray node of
// level lvl-1 covering the ids from base on. Depth-first order meets
// the nodes in increasing id order, as encodeK3's level sweeps do, so
// one run pointer serves the whole walk.
func k3CountGrays(runs []region.Run, ri *int, grays *[k3MaxLevels + 1]int, dim, nbits, lvl int, base uint64) {
	span := uint64(1) << uint(dim*(nbits-lvl))
	for child := uint64(0); child < 1<<uint(dim); child++ {
		lo := base + child*span
		if k3Classify(runs, ri, lo, lo+span-1) == k3Gray {
			grays[lvl]++
			k3CountGrays(runs, ri, grays, dim, nbits, lvl+1, lo)
		}
	}
}

// k3Level is one decoded tree level: n child slots, the full and mixed
// bitmaps (m nil at the leaf level), and the rank directory over m —
// built by ParseK3 for the pruned probes, left zero by Decode.
type k3Level struct {
	n     int
	f     []byte
	m     []byte
	mrank bitio.RankIndex
}

// K3Probe is a validated, queryable view over a K3Tree encoding. All
// probe methods, IntersectK3 included, operate on the encoded bitmaps —
// no run list is ever materialized unless Region or RunsInto is called.
// A parsed probe is read-only, and safe for concurrent use, until its
// owner Parses another tree into it.
type K3Probe struct {
	curve  sfc.Curve
	dim    int
	bits   int
	degree int
	root   byte
	levels []k3Level
	voxels uint64
	// dirs backs the levels' rank directories; a later Parse into the
	// same probe reuses it, as it reuses the levels' table.
	dirs []uint32
}

var _ region.Queryable = (*K3Probe)(nil)

// ParseK3 validates a K3Tree-encoded REGION (header included) and
// builds the per-level rank directories. The probe aliases data; the
// caller must not mutate it afterwards.
func ParseK3(data []byte) (*K3Probe, error) {
	p := new(K3Probe)
	if err := p.Parse(data); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse is ParseK3 into p, which keeps the capacity of its level table
// and rank directories from one Parse to the next: a probe its owner
// parses tree after tree into allocates only when a tree is deeper or
// larger than every one before. Whatever p held before is gone, and p
// aliases data as ParseK3's probe does. When data is rejected, p holds
// no tree — it is Empty, with no curve and no levels — and must not be
// probed until a Parse succeeds.
func (p *K3Probe) Parse(data []byte) error {
	if len(data) < headerLen {
		p.Reset()
		return fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	if m := Method(data[0]); m != K3Tree {
		p.Reset()
		return fmt.Errorf("rencode: ParseK3 on a %v encoding", m)
	}
	curve, err := sfc.New(sfc.Kind(data[1]), int(data[2]), int(data[3]))
	if err != nil {
		p.Reset()
		return fmt.Errorf("%w: bad curve header: %v", ErrCorrupt, err)
	}
	count := binary.BigEndian.Uint64(data[4:12])
	return p.parseBody(curve, count, data[headerLen:], true)
}

// Reset empties p the way a rejected Parse leaves it, dropping every
// reference into the bytes it was parsed from but keeping the capacity
// the next Parse reuses.
func (p *K3Probe) Reset() {
	clear(p.levels[:cap(p.levels)])
	*p = K3Probe{levels: p.levels[:0], dirs: p.dirs}
}

// parseBody parses and fully validates the payload into p: level sizes,
// zero padding, F∩M disjointness, canonical child groups, no trailing
// bytes, and the header count against the F-bitmap voxel total. With
// rank set it also builds the per-level rank directories the pruned
// probes descend by, all carved from one slice. On an error p is Reset.
func (p *K3Probe) parseBody(curve sfc.Curve, count uint64, body []byte, rank bool) error {
	p.Reset()
	if err := p.fill(curve, count, body, rank); err != nil {
		p.Reset()
		return err
	}
	return nil
}

// fill is parseBody on a Reset probe.
func (p *K3Probe) fill(curve sfc.Curve, count uint64, body []byte, rank bool) error {
	p.curve, p.dim, p.bits, p.degree, p.voxels = curve, curve.Dim(), curve.Bits(), 1<<uint(curve.Dim()), count
	if count > curve.Length() {
		return fmt.Errorf("%w: %d voxels on a %d-position curve", ErrCorrupt, count, curve.Length())
	}
	if len(body) < 1 {
		return fmt.Errorf("%w: missing k3 root byte", ErrCorrupt)
	}
	p.root = body[0]
	rest := body[1:]
	switch p.root {
	case k3Empty, k3Full:
		want := uint64(0)
		if p.root == k3Full {
			want = curve.Length()
		}
		if count != want {
			return fmt.Errorf("%w: k3 root color %d with count %d", ErrCorrupt, p.root, count)
		}
		if len(rest) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after k3 root", ErrCorrupt, len(rest))
		}
		return nil
	case k3Gray:
	default:
		return fmt.Errorf("%w: bad k3 root color %d", ErrCorrupt, p.root)
	}
	if cap(p.levels) < p.bits {
		p.levels = make([]k3Level, 0, p.bits)
	}
	var dir []uint32
	if rank {
		// A level with nb bytes of M holds at most 8·nb slots, so its
		// directory takes at most nb/64+2 entries; the M bitmaps are at
		// most half the body.
		n := len(rest)/128 + 2*p.bits
		if cap(p.dirs) < n {
			p.dirs = make([]uint32, n)
		}
		dir = p.dirs[:n]
	}
	prevGray := 1
	var voxels uint64
	for lvl := 1; lvl <= p.bits && prevGray > 0; lvl++ {
		n := p.degree * prevGray
		nb := (n + 7) / 8
		leaf := lvl == p.bits
		need := nb
		if !leaf {
			need = 2 * nb
		}
		if len(rest) < need {
			return fmt.Errorf("%w: k3 level %d truncated (%d of %d bytes)", ErrCorrupt, lvl, len(rest), need)
		}
		lv := k3Level{n: n, f: rest[:nb]}
		if !leaf {
			lv.m = rest[nb : 2*nb]
		}
		rest = rest[need:]
		if pad := uint(nb*8 - n); pad > 0 {
			mask := byte(1)<<pad - 1
			if lv.f[nb-1]&mask != 0 || (!leaf && lv.m[nb-1]&mask != 0) {
				return fmt.Errorf("%w: nonzero padding bits at k3 level %d", ErrCorrupt, lvl)
			}
		}
		if err := k3CheckGroups(&lv, p.degree, leaf, lvl); err != nil {
			return err
		}
		switch {
		case leaf:
			prevGray = 0
		case rank:
			lv.mrank, dir = bitio.MakeRankIndex(lv.m, n, dir)
			prevGray = lv.mrank.Ones()
		default:
			prevGray = bitio.Rank1(lv.m, n)
		}
		voxels += uint64(bitio.Rank1(lv.f, n)) << uint(p.dim*(p.bits-lvl))
		p.levels = append(p.levels, lv)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after k3 levels", ErrCorrupt, len(rest))
	}
	if voxels != count {
		return fmt.Errorf("%w: k3 header count %d, bitmaps hold %d voxels", ErrCorrupt, count, voxels)
	}
	return nil
}

// k3CheckGroups enforces per-group canonical form at one level: F and
// M disjoint, and no child group that is entirely full or entirely
// empty (either must have collapsed into the parent's color).
func k3CheckGroups(lv *k3Level, degree int, leaf bool, lvl int) error {
	if degree == 8 {
		for i := 0; i < len(lv.f); i++ {
			fb := lv.f[i]
			var mb byte
			if !leaf {
				mb = lv.m[i]
			}
			switch {
			case fb&mb != 0:
				return fmt.Errorf("%w: k3 level %d slot both full and mixed", ErrCorrupt, lvl)
			case fb == 0xff:
				return fmt.Errorf("%w: k3 level %d all-full child group", ErrCorrupt, lvl)
			case fb|mb == 0:
				return fmt.Errorf("%w: k3 level %d all-empty child group", ErrCorrupt, lvl)
			}
		}
		return nil
	}
	// degree 4 (2D curves): two groups per byte, high nibble first.
	for g := 0; g < lv.n/4; g++ {
		shift := uint(4 - 4*(g&1))
		fb := lv.f[g/2] >> shift & 0xf
		var mb byte
		if !leaf {
			mb = lv.m[g/2] >> shift & 0xf
		}
		switch {
		case fb&mb != 0:
			return fmt.Errorf("%w: k3 level %d slot both full and mixed", ErrCorrupt, lvl)
		case fb == 0xf:
			return fmt.Errorf("%w: k3 level %d all-full child group", ErrCorrupt, lvl)
		case fb|mb == 0:
			return fmt.Errorf("%w: k3 level %d all-empty child group", ErrCorrupt, lvl)
		}
	}
	return nil
}

// k3Streaks counts the streaks of consecutive full siblings in a
// level's F bitmap — set bits whose predecessor within the same child
// group is clear — eight bytes at a time. Siblings are consecutive in
// id space, so a streak decodes to at most one run.
func k3Streaks(f []byte, degree int) int {
	inGroup := uint64(0x7f7f7f7f7f7f7f7f) // bits that have a predecessor in their group
	if degree == 4 {
		inGroup = 0x7777777777777777
	}
	n := 0
	for ; len(f) >= 8; f = f[8:] {
		w := binary.BigEndian.Uint64(f)
		n += bits.OnesCount64(w &^ (w >> 1 & inGroup))
	}
	for _, b := range f {
		n += bits.OnesCount8(b &^ (b >> 1 & byte(inGroup)))
	}
	return n
}

// k3Group returns child group g of a level bitmap, first child in the
// top bit: the whole byte g on 3D curves (degree 8), and on 2D curves
// (degree 4, two groups per byte, high nibble first) nibble g moved to
// the high half with the low half zero — so one group-at-a-time loop
// serves both shapes.
func k3Group(buf []byte, degree, g int) byte {
	if degree == 8 {
		return buf[g]
	}
	return buf[g>>1] << uint(4*(g&1)) & 0xf0
}

// k3Bit reads bit j of an MSB-first bitmap.
func k3Bit(buf []byte, j int) bool {
	return buf[j>>3]&(0x80>>uint(j&7)) != 0
}

// Curve returns the curve the region is defined over.
func (p *K3Probe) Curve() sfc.Curve { return p.curve }

// NumVoxels returns the region's voxel count (from the header; the
// parser has verified it against the bitmaps).
func (p *K3Probe) NumVoxels() uint64 { return p.voxels }

// Empty reports whether the region holds no voxels.
func (p *K3Probe) Empty() bool { return p.root == k3Empty }

// ContainsID reports whether curve position id is in the region,
// descending one tree path: O(bits) rank probes, no allocation.
func (p *K3Probe) ContainsID(id uint64) bool {
	if id >= p.curve.Length() {
		return false
	}
	switch p.root {
	case k3Empty:
		return false
	case k3Full:
		return true
	}
	groupBase := 0
	for lvl := 1; ; lvl++ {
		lv := &p.levels[lvl-1]
		j := groupBase + int(id>>uint(p.dim*(p.bits-lvl)))&(p.degree-1)
		if k3Bit(lv.f, j) {
			return true
		}
		if lv.m == nil || !k3Bit(lv.m, j) {
			return false
		}
		groupBase = p.degree * lv.mrank.Rank1(j)
	}
}

// ContainsPoint reports whether the grid point is in the region.
func (p *K3Probe) ContainsPoint(pt sfc.Point) bool {
	return p.ContainsID(p.curve.ID(pt))
}

// AnyInRange reports whether any position in [lo, hi] is present —
// the emptiness test for a curve interval (and, via the cube/interval
// correspondence, for aligned boxes).
func (p *K3Probe) AnyInRange(lo, hi uint64) bool {
	if hi >= p.curve.Length() {
		hi = p.curve.Length() - 1
	}
	if lo > hi {
		return false
	}
	switch p.root {
	case k3Empty:
		return false
	case k3Full:
		return true
	}
	return p.anyRec(1, 0, 0, lo, hi)
}

func (p *K3Probe) anyRec(lvl, groupBase int, base, lo, hi uint64) bool {
	lv := &p.levels[lvl-1]
	span := uint64(1) << uint(p.dim*(p.bits-lvl))
	first, last := 0, p.degree-1
	if lo > base {
		first = int((lo - base) / span)
	}
	if top := base + span*uint64(p.degree) - 1; top > hi {
		last = int((hi - base) / span)
	}
	for c := first; c <= last; c++ {
		j := groupBase + c
		if k3Bit(lv.f, j) {
			return true
		}
		if lv.m != nil && k3Bit(lv.m, j) {
			if p.anyRec(lvl+1, p.degree*lv.mrank.Rank1(j), base+uint64(c)*span, lo, hi) {
				return true
			}
		}
	}
	return false
}

// AllInRange reports whether every position in [lo, hi] is present —
// the coverage test behind CONTAINS with the container still encoded.
func (p *K3Probe) AllInRange(lo, hi uint64) bool {
	if lo > hi {
		return true
	}
	if hi >= p.curve.Length() {
		return false
	}
	switch p.root {
	case k3Empty:
		return false
	case k3Full:
		return true
	}
	return p.allRec(1, 0, 0, lo, hi)
}

func (p *K3Probe) allRec(lvl, groupBase int, base, lo, hi uint64) bool {
	lv := &p.levels[lvl-1]
	span := uint64(1) << uint(p.dim*(p.bits-lvl))
	first, last := 0, p.degree-1
	if lo > base {
		first = int((lo - base) / span)
	}
	if top := base + span*uint64(p.degree) - 1; top > hi {
		last = int((hi - base) / span)
	}
	for c := first; c <= last; c++ {
		j := groupBase + c
		if k3Bit(lv.f, j) {
			continue
		}
		if lv.m == nil || !k3Bit(lv.m, j) {
			return false
		}
		if !p.allRec(lvl+1, p.degree*lv.mrank.Rank1(j), base+uint64(c)*span, lo, hi) {
			return false
		}
	}
	return true
}

// k3Out collects a descent's result runs, met in increasing id order,
// extending the last run instead when the next one touches it. A
// descent runs twice (k3Collect): the first pass only counts, the
// second fills a list allocated at that count.
type k3Out struct {
	runs   []region.Run // nil on the counting pass
	n      int          // runs emitted so far
	lastHi uint64       // Hi of the last run; meaningful when n > 0
}

func (o *k3Out) emit(lo, hi uint64) {
	if o.n > 0 && o.lastHi+1 == lo {
		if o.runs != nil {
			o.runs[o.n-1].Hi = hi
		}
	} else {
		if o.runs != nil {
			o.runs[o.n] = region.Run{Lo: lo, Hi: hi}
		}
		o.n++
	}
	o.lastHi = hi
}

// k3Collect runs descend once to count the result runs and once more
// into a list of exactly that length, in buf's backing array when it
// has room: at most one allocation, never a regrowth.
func k3Collect(buf []region.Run, descend func(o *k3Out)) []region.Run {
	var o k3Out
	descend(&o)
	if o.n == 0 {
		return buf[:0]
	}
	if cap(buf) < o.n {
		buf = make([]region.Run, o.n)
	}
	o.runs, o.n = buf[:o.n], 0
	descend(&o)
	return o.runs
}

// IntersectRuns intersects the region with a sorted, normalized run
// list (as Region.Runs returns), pruning whole subtrees the runs never
// touch. The result is normalized and in increasing order.
func (p *K3Probe) IntersectRuns(runs []region.Run) []region.Run {
	return p.IntersectRunsInto(runs, nil)
}

// IntersectRunsInto is IntersectRuns into buf (region.Queryable).
func (p *K3Probe) IntersectRunsInto(runs, buf []region.Run) []region.Run {
	if p.root == k3Empty || len(runs) == 0 {
		return buf[:0]
	}
	if p.root == k3Full {
		return append(buf[:0], runs...)
	}
	return k3Collect(buf, func(o *k3Out) {
		it := k3Intersector{p: p, runs: runs, out: o}
		it.rec(1, 0, 0)
	})
}

// k3Intersector carries the DFS state of IntersectRuns: a single run
// pointer advanced in id order, and where the result runs go.
type k3Intersector struct {
	p    *K3Probe
	runs []region.Run
	ri   int
	out  *k3Out
}

func (it *k3Intersector) rec(lvl, groupBase int, base uint64) {
	p := it.p
	lv := &p.levels[lvl-1]
	span := uint64(1) << uint(p.dim*(p.bits-lvl))
	for c := 0; c < p.degree; c++ {
		cb := base + uint64(c)*span
		ch := cb + span - 1
		for it.ri < len(it.runs) && it.runs[it.ri].Hi < cb {
			it.ri++
		}
		if it.ri >= len(it.runs) {
			return
		}
		if it.runs[it.ri].Lo > ch {
			continue
		}
		j := groupBase + c
		switch {
		case k3Bit(lv.f, j):
			for k := it.ri; k < len(it.runs) && it.runs[k].Lo <= ch; k++ {
				lo, hi := it.runs[k].Lo, it.runs[k].Hi
				if lo < cb {
					lo = cb
				}
				if hi > ch {
					hi = ch
				}
				it.out.emit(lo, hi)
			}
		case lv.m != nil && k3Bit(lv.m, j):
			it.rec(lvl+1, p.degree*lv.mrank.Rank1(j), cb)
		}
	}
}

// IntersectK3 intersects two k³-trees on the same curve without
// expanding either to runs: it descends both in step, one child group
// of each at a time. A child empty in either tree is pruned, full in
// both is emitted whole, full in one emits the other's subtree below
// it, and mixed in both is descended into. The result runs go straight
// into one list of exactly their number (k3Collect). q must be on p's
// curve — same kind, dimension and bits — or the result is meaningless.
func (p *K3Probe) IntersectK3(q *K3Probe) []region.Run { return p.IntersectK3Into(q, nil) }

// IntersectK3Into is IntersectK3 into buf: the result is in buf's
// backing array when it has room, in a new slice otherwise.
func (p *K3Probe) IntersectK3Into(q *K3Probe, buf []region.Run) []region.Run {
	switch {
	case p.root == k3Empty || q.root == k3Empty:
		return buf[:0]
	case p.root == k3Full:
		return q.RunsInto(buf)
	case q.root == k3Full:
		return p.RunsInto(buf)
	}
	return k3Collect(buf, func(o *k3Out) { k3Meet(o, p, q, 1, 0, 0, 0) })
}

// groups returns the full and mixed bits of the child group starting
// at slot gs of level lvl, first child in the top bit (k3Group); the
// last level has no mixed bitmap.
func (p *K3Probe) groups(lvl, gs int) (f, m byte) {
	lv := &p.levels[lvl-1]
	g := gs / p.degree
	f = k3Group(lv.f, p.degree, g)
	if lv.m != nil {
		m = k3Group(lv.m, p.degree, g)
	}
	return f, m
}

// k3Meet is IntersectK3's descent through the child groups starting at
// slot gp of p's and slot gq of q's level lvl, which both cover the ids
// from base on.
func k3Meet(o *k3Out, p, q *K3Probe, lvl, gp, gq int, base uint64) {
	pf, pm := p.groups(lvl, gp)
	qf, qm := q.groups(lvl, gq)
	shift := uint(p.dim * (p.bits - lvl)) // a child spans 1<<shift ids
	for live := (pf | pm) & (qf | qm); live != 0; {
		c := bits.LeadingZeros8(live)
		bit := byte(0x80) >> uint(c)
		live &^= bit
		lo := base + uint64(c)<<shift
		switch {
		case pf&qf&bit != 0:
			o.emit(lo, lo+1<<shift-1)
		case pf&bit != 0:
			q.emitSubtree(o, lvl+1, q.degree*q.levels[lvl-1].mrank.Rank1(gq+c), lo)
		case qf&bit != 0:
			p.emitSubtree(o, lvl+1, p.degree*p.levels[lvl-1].mrank.Rank1(gp+c), lo)
		default:
			k3Meet(o, p, q, lvl+1,
				p.degree*p.levels[lvl-1].mrank.Rank1(gp+c),
				q.degree*q.levels[lvl-1].mrank.Rank1(gq+c), lo)
		}
	}
}

// emitSubtree emits every run below a mixed node: the child group
// starting at slot gs of level lvl, covering the ids from base on.
func (p *K3Probe) emitSubtree(o *k3Out, lvl, gs int, base uint64) {
	f, m := p.groups(lvl, gs)
	shift := uint(p.dim * (p.bits - lvl))
	for live := f | m; live != 0; {
		c := bits.LeadingZeros8(live)
		bit := byte(0x80) >> uint(c)
		live &^= bit
		lo := base + uint64(c)<<shift
		if f&bit != 0 {
			o.emit(lo, lo+1<<shift-1)
		} else {
			p.emitSubtree(o, lvl+1, p.degree*p.levels[lvl-1].mrank.Rank1(gs+c), lo)
		}
	}
}

// k3MaxLevels bounds the tree depth: sfc.New admits dim·bits <= 63
// with dim >= 2.
const k3MaxLevels = 31

// k3Frame is one child group on Region's walk: its full and mixed bits
// still to visit (next child in the top bit) and the curve position at
// which that next child starts.
type k3Frame struct {
	f, m byte
	at   uint64
}

// k3Emit appends the run [lo, hi] to a list built in increasing id
// order, extending the last run instead when the two touch.
func k3Emit(runs []region.Run, lo, hi uint64) []region.Run {
	if n := len(runs); n > 0 && runs[n-1].Hi+1 == lo {
		runs[n-1].Hi = hi
		return runs
	}
	return append(runs, region.Run{Lo: lo, Hi: hi})
}

// Region materializes the run-list region — the same result Decode
// produces — from runs.
func (p *K3Probe) Region() (*region.Region, error) {
	return region.FromOwnedRuns(p.curve, p.RunsInto(nil))
}

// maxRuns bounds the region's run count for RunsInto: every run starts a
// streak of full siblings, so the streaks bound the list (only streaks
// that touch across groups merge into one run).
func (p *K3Probe) maxRuns() int {
	switch p.root {
	case k3Empty:
		return 0
	case k3Full:
		return 1
	}
	n := 0
	for i := range p.levels {
		n += k3Streaks(p.levels[i].f, p.degree)
	}
	return n
}

// RunsInto returns the region's run list, in buf's backing array when
// it has room for the list's bound and in a new slice otherwise, in one
// depth-first sweep. The levels store their groups in breadth-first
// order, and a depth-first walk of the whole tree reaches the groups of
// any one level in that same order (both are id order), so the group
// under a mixed child is simply the next unread group one level down: a
// cursor per level, no rank₁. Each group is taken whole — one byte of F
// and one of M — and its full children leave as streaks found with
// leading-zero and leading-one counts; a group of the last level, which
// has no M, is emitted where it is met rather than pushed.
func (p *K3Probe) RunsInto(buf []region.Run) []region.Run {
	runs := buf[:0]
	switch p.root {
	case k3Empty:
		return runs
	case k3Full:
		return append(runs, region.Run{Lo: 0, Hi: p.curve.Length() - 1})
	}
	if maxRuns := p.maxRuns(); cap(runs) < maxRuns {
		runs = make([]region.Run, 0, maxRuns)
	}
	var (
		next  [k3MaxLevels]int // next[l]: the first unread group of level l+1
		stack [k3MaxLevels]k3Frame
	)
	// The group in hand belongs to level lvl. The walk starts above the
	// tree, on a one-child group whose only member is the gray root.
	lvl, fr := 0, k3Frame{m: 0x80}
	for {
		live := fr.f | fr.m
		if live == 0 {
			if lvl == 0 {
				break
			}
			lvl--
			fr = stack[lvl]
			continue
		}
		shift := uint(p.dim * (p.bits - lvl)) // a child spans 1<<shift positions
		skip := uint(bits.LeadingZeros8(live))
		fr.f, fr.m, fr.at = fr.f<<skip, fr.m<<skip, fr.at+uint64(skip)<<shift
		lo := fr.at
		if fr.f&0x80 != 0 {
			full := uint(bits.LeadingZeros8(^fr.f))
			fr.f, fr.m, fr.at = fr.f<<full, fr.m<<full, lo+uint64(full)<<shift
			runs = k3Emit(runs, lo, fr.at-1)
			continue
		}
		// A mixed child: its group is the next unread one a level down.
		fr.f, fr.m, fr.at = fr.f<<1, fr.m<<1, lo+1<<shift
		lv := &p.levels[lvl]
		g := next[lvl]
		next[lvl]++
		if lv.m == nil { // the last level: its children are single voxels
			for fb, at := k3Group(lv.f, p.degree, g), lo; fb != 0; {
				skip := bits.LeadingZeros8(fb)
				full := bits.LeadingZeros8(^(fb << uint(skip)))
				at += uint64(skip)
				runs = k3Emit(runs, at, at+uint64(full)-1)
				fb, at = fb<<uint(skip+full), at+uint64(full)
			}
			continue
		}
		stack[lvl] = fr
		lvl++
		fr = k3Frame{f: k3Group(lv.f, p.degree, g), m: k3Group(lv.m, p.degree, g), at: lo}
	}
	return runs
}
