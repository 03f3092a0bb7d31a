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
// slot degree·rank₁(M_ℓ, j) of level ℓ+1. Nothing but the bitmaps is
// stored or built: ParseK3 checks them and keeps a table of where each
// level lies. Every query sweeps the tree in id order, and each level
// stores its slots in id order too, so a sweep asks each level for slots
// in increasing order. The walk behind Decode, IntersectRunsInto and the
// population fold (StoredFold) goes depth first and meets each level's
// groups in the order the level stores them, so a per-level cursor
// stands in for rank₁ (see walk). The coverage sweep behind CONTAINS and
// point membership (CoversRuns) counts rank₁ by cursor, each count only
// the M bits since the level's last (k3Ranks).
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

// k3Level is one decoded tree level: n child slots, and the full and
// mixed bitmaps (m nil at the leaf level).
type k3Level struct {
	n int
	f []byte
	m []byte
}

// K3Probe is a validated, queryable view over a K3Tree encoding. All
// probe methods operate on the encoded bitmaps — no run list is ever
// materialized unless RunsInto is called.
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
	size   int // the payload's bytes
}

var _ region.Queryable = (*K3Probe)(nil)

// ParseK3 validates a K3Tree-encoded REGION (header included) and
// builds its level table, which says where each level's bitmaps lie.
// The probe aliases data; the caller must not mutate it afterwards.
func ParseK3(data []byte) (*K3Probe, error) {
	p := new(K3Probe)
	if err := p.Parse(data); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse is ParseK3 into p, which keeps the capacity of its level table
// from one Parse to the next: a probe its owner parses tree after tree
// into allocates only when a tree is deeper than every one before, and
// the table never holds more than k3MaxLevels levels. Whatever p held
// before is gone, and p aliases data as ParseK3's probe does. When data
// is rejected, p holds no tree — it is Empty, with no curve and no
// levels — and must not be probed until a Parse succeeds.
func (p *K3Probe) Parse(data []byte) error {
	if len(data) < HeaderLen {
		p.Reset()
		return fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	if m := methodOfCode(data[0]); m != K3Tree {
		p.Reset()
		return fmt.Errorf("rencode: ParseK3 on a %v encoding", m)
	}
	curve, err := sfc.New(sfc.Kind(data[1]), int(data[2]), int(data[3]))
	if err != nil {
		p.Reset()
		return fmt.Errorf("%w: bad curve header: %v", ErrCorrupt, err)
	}
	count := binary.BigEndian.Uint64(data[4:12])
	return p.parseBody(curve, count, data[HeaderLen:])
}

// Reset empties p the way a rejected Parse leaves it, dropping every
// reference into the bytes it was parsed from but keeping the capacity
// the next Parse reuses.
func (p *K3Probe) Reset() {
	clear(p.levels[:cap(p.levels)])
	// Field by field: a probe on its caller's stack stays there.
	p.curve, p.dim, p.bits, p.degree, p.root, p.voxels, p.size = nil, 0, 0, 0, 0, 0, 0
	p.levels = p.levels[:0]
}

// parseBody parses and fully validates the payload into p: level sizes,
// zero padding, F∩M disjointness, canonical child groups, no trailing
// bytes, and the header count against the F-bitmap voxel total. On an
// error p is Reset.
func (p *K3Probe) parseBody(curve sfc.Curve, count uint64, body []byte) error {
	p.Reset()
	if err := p.fill(curve, count, body); err != nil {
		p.Reset()
		return err
	}
	return nil
}

// fill is parseBody on a Reset probe.
func (p *K3Probe) fill(curve sfc.Curve, count uint64, body []byte) error {
	p.curve, p.dim, p.bits, p.degree, p.voxels, p.size = curve, curve.Dim(), curve.Bits(), 1<<uint(curve.Dim()), count, len(body)
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
		if prevGray = 0; !leaf {
			prevGray = bitio.Rank1(lv.m, n)
		}
		voxels += uint64(bitio.Rank1(lv.f, n)) << uint(p.dim*(p.bits-lvl))
		p.levels = p.levels[:len(p.levels)+1] // p.bits fit, and lvl <= p.bits
		p.levels[len(p.levels)-1] = lv
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
// empty (either must have collapsed into the parent's color). On a 3D
// curve it takes eight groups a word while none breaks a rule; then it
// goes group by group, to name the first that does.
func k3CheckGroups(lv *k3Level, degree int, leaf bool, lvl int) error {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	zeroByte := func(v uint64) bool { return (v-ones)&^v&highs != 0 }
	g := 0
	for ; degree == 8 && g+8 <= len(lv.f); g += 8 {
		f, m := binary.BigEndian.Uint64(lv.f[g:]), uint64(0)
		if !leaf {
			m = binary.BigEndian.Uint64(lv.m[g:])
		}
		if f&m != 0 || zeroByte(^f) || zeroByte(f|m) {
			break
		}
	}
	full := byte(0xff) << (8 - degree) // all children of a group, as k3Group gives it
	for ; g < lv.n/degree; g++ {
		f, m := k3Group(lv.f, degree, g), byte(0)
		if !leaf {
			m = k3Group(lv.m, degree, g)
		}
		switch {
		case f&m != 0:
			return fmt.Errorf("%w: k3 level %d slot both full and mixed", ErrCorrupt, lvl)
		case f == full:
			return fmt.Errorf("%w: k3 level %d all-full child group", ErrCorrupt, lvl)
		case f|m == 0:
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

// ContainsID reports whether curve position id is in the region: the
// coverage sweep (CoversRuns) over the one run [id, id], with no
// allocation.
func (p *K3Probe) ContainsID(id uint64) bool {
	one := [1]region.Run{{Lo: id, Hi: id}}
	return p.CoversRuns(one[:])
}

// CoversRuns reports whether the region holds every position of runs, a
// sorted, normalized run list (region.Queryable): the coverage test
// behind CONTAINS with the container still encoded. It descends from the
// root once per run, into the mixed children the run meets. Runs in
// increasing order ask each level for slots in increasing order, so the
// rank₁ that finds a mixed child's group is counted by cursor (k3Ranks).
func (p *K3Probe) CoversRuns(runs []region.Run) bool {
	switch {
	case len(runs) == 0:
		return true
	case runs[len(runs)-1].Hi >= p.curve.Length() || p.root == k3Empty:
		return false
	case p.root == k3Full:
		return true
	}
	var ranks k3Ranks
	for _, r := range runs {
		if !p.covers(&ranks, 1, 0, 0, r.Lo, r.Hi) {
			return false
		}
	}
	return true
}

// covers reports whether the region holds all of [lo, hi] that lies
// below the child group at slot groupBase of level lvl, whose first
// child starts at curve position base.
func (p *K3Probe) covers(ranks *k3Ranks, lvl, groupBase int, base, lo, hi uint64) bool {
	lv := &p.levels[lvl-1]
	shift := uint(p.dim * (p.bits - lvl)) // a child spans 1<<shift positions
	first, last := 0, p.degree-1
	if lo > base {
		first = int((lo - base) >> shift)
	}
	if top := base + uint64(p.degree)<<shift - 1; top > hi {
		last = int((hi - base) >> shift)
	}
	for c := first; c <= last; c++ {
		j := groupBase + c
		if k3Bit(lv.f, j) {
			continue
		}
		if lv.m == nil || !k3Bit(lv.m, j) {
			return false
		}
		g := ranks.rank1(lv.m, lvl-1, j)
		if !p.covers(ranks, lvl+1, p.degree*g, base+uint64(c)<<shift, lo, hi) {
			return false
		}
	}
	return true
}

// k3Ranks is rank₁ by cursor over each level's M bitmap, for a sweep
// that asks each level for slots in increasing order: per level, the
// slot last asked for and rank₁ up to it. The zero k3Ranks starts every
// level at slot 0.
type k3Ranks struct {
	slot, ones [k3MaxLevels]int
}

// rank1 returns rank₁(m, j), m being the M bitmap of level i (from 0)
// and j no lower than the slot last asked of it, counting only the bits
// since that slot: from the byte that holds it, less those before it.
func (r *k3Ranks) rank1(m []byte, i, j int) int {
	s := r.slot[i]
	b := m[s>>3:]
	r.ones[i] += bitio.Rank1(b, j-s&^7) - bitio.Rank1(b, s&7)
	r.slot[i] = j
	return r.ones[i]
}

// Size returns the length of the encoding's payload, the bytes a walk
// of the tree reads.
func (p *K3Probe) Size() int { return p.size }

// k3MaxLevels bounds the tree depth: sfc.New admits dim·bits <= 63
// with dim >= 2.
const k3MaxLevels = 31

// k3Frame is one child group on a walk of the tree (walk): its full and
// mixed bits still to visit (next child in the top bit) and the curve
// position at which that next child starts.
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
// it has room for the list's bound (maxRuns) and in a new slice
// otherwise: the region's intersection with the whole curve.
func (p *K3Probe) RunsInto(buf []region.Run) []region.Run {
	if n := p.maxRuns(); cap(buf) < n {
		buf = make([]region.Run, 0, n)
	}
	whole := [1]region.Run{{Hi: 1<<uint(p.dim*p.bits) - 1}}
	return p.IntersectRunsInto(whole[:], buf)
}

// IntersectRunsInto intersects the region with a sorted, normalized run
// list (as Region.Runs returns) into buf (region.Queryable), by walk: in
// buf's backing array, grown by append when the result outgrows it. The
// result is normalized and in increasing order.
func (p *K3Probe) IntersectRunsInto(runs, buf []region.Run) []region.Run {
	out := k3Set{runs: buf[:0]}
	p.walk(k3Set{runs: runs}, &out)
	return out.runs
}

// k3Set is a set of curve positions as sorted, disjoint pieces, the
// form walk reads and writes. Without words the pieces are normalized
// runs. With words (StoredFold's form) they are blocks of the curve —
// what lies below a node of the last level but one, 64 positions on a 3D
// curve — and each has a word: ^0 for a run of whole blocks, or, for one
// block, the positions of it that the word holds, the first in the top
// bit.
type k3Set struct {
	runs  []region.Run
	words []uint64
}

// walk appends to out the intersection of the region with acc, in one
// depth-first sweep of the tree; out has words when acc does. A
// depth-first walk meets the groups of each level in the order the level
// stores them (both are id order), so the group under a mixed child is
// the next unread one a level down: a cursor per level stands in for
// rank₁. Each group is taken whole, a byte of F and one of M. A streak
// of full children, found by leading-zero and leading-one counts, keeps
// the pieces of acc it covers, clipped. A mixed child that acc misses is
// skipped (skipSubtrees); one that is a block becomes a word of voxels
// (k3Block) that meets acc's pieces over it (meet). The walk ends where
// acc does.
func (p *K3Probe) walk(acc k3Set, out *k3Set) {
	switch {
	case p.root == k3Empty || len(acc.runs) == 0:
		return
	case p.root == k3Full:
		out.runs = append(out.runs, acc.runs...)
		if acc.words != nil {
			out.words = append(out.words, acc.words...)
		}
		return
	}
	var (
		next  [k3MaxLevels]int // next[l]: the first unread group of level l+1
		stack [k3MaxLevels]k3Frame
	)
	ai := 0 // acc.runs[ai] is the first piece that may meet the child in hand
	// The group in hand belongs to level lvl. The walk starts above the
	// tree, on a one-child group whose only member is the gray root.
	lvl, fr := 0, k3Frame{m: 0x80}
	for {
		live := fr.f | fr.m
		if live == 0 {
			if lvl == 0 {
				return
			}
			lvl--
			fr = stack[lvl]
			continue
		}
		shift := uint(p.dim * (p.bits - lvl)) // a child spans 1<<shift positions
		skip := uint(bits.LeadingZeros8(live))
		fr.f, fr.m, fr.at = fr.f<<skip, fr.m<<skip, fr.at+uint64(skip)<<shift
		lo := fr.at
		for acc.runs[ai].Hi < lo {
			if ai++; ai == len(acc.runs) {
				return
			}
		}
		if fr.f&0x80 != 0 {
			full := uint(bits.LeadingZeros8(^fr.f))
			fr.f, fr.m, fr.at = fr.f<<full, fr.m<<full, lo+uint64(full)<<shift
			for i := ai; i < len(acc.runs) && acc.runs[i].Lo < fr.at; i++ {
				r := region.Run{Lo: max(lo, acc.runs[i].Lo), Hi: min(fr.at-1, acc.runs[i].Hi)}
				if acc.words == nil {
					out.runs = k3Emit(out.runs, r.Lo, r.Hi)
				} else {
					out.runs, out.words = append(out.runs, r), append(out.words, acc.words[i])
				}
			}
			continue
		}
		// A mixed child: its group is the next unread one a level down.
		fr.f, fr.m, fr.at = fr.f<<1, fr.m<<1, lo+1<<shift
		if acc.runs[ai].Lo >= fr.at { // acc has nothing below it
			p.skipSubtrees(&next, lvl)
			continue
		}
		lv := &p.levels[lvl]
		g := next[lvl]
		next[lvl]++
		f := k3Group(lv.f, p.degree, g)
		var word uint64
		switch p.bits - lvl {
		case 1: // a one-level tree: its root's group is the one block
			word = uint64(f) << 56
		case 2: // the group's mixed children are groups of the last level
			m := k3Group(lv.m, p.degree, g)
			var leaves []byte
			if lvl+1 < len(p.levels) {
				leaves = p.levels[lvl+1].f
			}
			word = k3Block(f, m, leaves, p.degree, next[lvl+1])
			next[lvl+1] += bits.OnesCount8(m)
		default:
			stack[lvl] = fr
			lvl++
			fr = k3Frame{f: f, m: k3Group(lv.m, p.degree, g), at: lo}
			continue
		}
		out.meet(&acc, ai, word, lo, fr.at-1)
	}
}

// skipSubtrees moves the cursors past the subtree of the walk's next
// mixed child of level lvl, whose group is next[lvl] of p.levels[lvl]:
// each level below holds one group for every mixed child of the groups
// a level up, and those groups are consecutive.
func (p *K3Probe) skipSubtrees(next *[k3MaxLevels]int, lvl int) {
	for n := 1; n > 0; lvl++ {
		g := next[lvl]
		next[lvl] += n
		if p.levels[lvl].m == nil {
			return
		}
		n = k3GroupOnes(p.levels[lvl].m, p.degree, g, n)
	}
}

// k3GroupOnes counts the set bits of the n child groups of a level
// bitmap from group g on.
func k3GroupOnes(buf []byte, degree, g, n int) int {
	if degree == 8 {
		return bitio.Rank1(buf[g:], 8*n)
	}
	off := 4 * (g & 1) // a 2D group is a nibble, high one first
	return bitio.Rank1(buf[g>>1:], off+4*n) - bits.OnesCount8(buf[g>>1]>>uint(8-off))
}

// k3Block returns the voxels below a node of the last level but one as a
// word, the node's first position in the top bit: its child group, full
// bits f and mixed bits m, and the last level's groups under its mixed
// children, which start at group g of leaves.
func k3Block(f, m byte, leaves []byte, degree, g int) uint64 {
	if degree == 8 {
		w := k3Spread[f]
		for _, b := range leaves[g : g+bits.OnesCount8(m)] {
			c := uint(bits.LeadingZeros8(m))
			m &^= 0x80 >> c
			w |= uint64(b) << (56 - 8*c&63)
		}
		return w
	}
	var w uint64
	for live := f | m; live != 0; {
		c := uint(bits.LeadingZeros8(live))
		bit := byte(0x80) >> c
		live &^= bit
		b := byte(0xf0) // a 2D group is a nibble
		if f&bit == 0 {
			b = k3Group(leaves, degree, g)
			g++
		}
		w |= uint64(b) << (56 - 4*c&63)
	}
	return w
}

// k3Spread[f] is the word of a 3D group whose full bits are f: byte i
// from the top all ones where bit i from the top of f is set.
var k3Spread = func() (t [256]uint64) {
	for f := range t {
		for c := range 8 {
			t[f] |= uint64(f>>(7-c)&1) * 0xff << (56 - 8*c)
		}
	}
	return t
}()

// meet appends the positions of the block [lo, hi] that word holds —
// position lo+j in bit j from the top — and acc's pieces from piece i
// on hold too; piece i ends at lo or after. With words, piece i holds
// the whole block, and the result is one piece; without, acc's runs over
// the block make a mask, and the result leaves as runs.
func (s *k3Set) meet(acc *k3Set, i int, word, lo, hi uint64) {
	if acc.words != nil {
		if word &= acc.words[i]; word != 0 {
			s.runs = append(s.runs, region.Run{Lo: lo, Hi: hi})
			s.words = append(s.words, word)
		}
		return
	}
	var mask uint64
	for _, r := range acc.runs[i:] {
		if r.Lo > hi {
			break
		}
		a, b := max(r.Lo, lo)-lo, min(r.Hi, hi)-lo
		mask |= ^uint64(0) >> (a & 63) &^ (^uint64(0) >> b >> 1)
	}
	s.runs = k3WordRuns(s.runs, word&mask, lo)
}

// k3WordRuns appends the runs of the positions word holds — position
// lo+j in bit j from the top — extending runs' last where they touch.
func k3WordRuns(runs []region.Run, word, lo uint64) []region.Run {
	for word != 0 {
		z := uint64(bits.LeadingZeros64(word))
		word, lo = word<<z, lo+z
		o := uint64(bits.LeadingZeros64(^word))
		runs = k3Emit(runs, lo, lo+o-1)
		word, lo = word<<o, lo+o
	}
	return runs
}
