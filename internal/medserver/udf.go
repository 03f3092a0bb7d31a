package medserver

import (
	"fmt"
	"math"

	"qbism/internal/lfm"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
)

// registerSpatialUDFs installs the spatial operators of Section 3.2 (and
// the helpers the MedicalServer's generated SQL uses) as user-defined
// SQL functions, the way the prototype extended Starburst. They serve
// one curve, the server's: VOLUMEs and every REGION the server's SQL
// reads are stored in its Hilbert order, and a REGION on another curve
// is refused (onCurve) where it would meet another operand or a VOLUME.
//
// A REGION-valued function returns its result parsed (parsedRegion),
// and a REGION argument is taken in whatever form it arrives
// (regionOf), so intersection() nested in extractVoxels() hands over a
// run list with no encoding in between. Every function that reads or
// returns a REGION keeps its working memory at its call site
// (callState), so a call reads, parses and builds into buffers an
// earlier call grew.
func (s *Server) registerSpatialUDFs() error {
	udfs := []*sdb.UDF{
		{
			// INTERSECTION(REGION r1, REGION r2) -> REGION. A k³-tree
			// operand stays in its stored form: its walk meets the other's
			// run list, or, of two k³-trees, the smaller one's (intersect).
			Name: "intersection", MinArgs: 2, MaxArgs: 2, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				st := stateOf(call)
				a, err := s.regionOf(call.IO(), call, st.arg(0), args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				b, err := s.regionOf(call.IO(), call, st.arg(1), args[1], false)
				if err != nil {
					return sdb.Value{}, err
				}
				if err := s.onCurve(a, b); err != nil {
					return sdb.Value{}, err
				}
				out, err := intersect(st.result(), st.arg(0), st.arg(1), a, b)
				if err != nil {
					return sdb.Value{}, err
				}
				return s.parsed(st, out), nil
			},
		},
		{
			// UNION(r1, r2), mentioned as a straightforward extension.
			Name: "unionRegion", MinArgs: 2, MaxArgs: 2, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				return s.regionBinop(call, args, region.Union)
			},
		},
		{
			// DIFFERENCE(r1, r2), likewise.
			Name: "differenceRegion", MinArgs: 2, MaxArgs: 2, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				return s.regionBinop(call, args, region.Difference)
			},
		},
		{
			// CONTAINS(REGION r1, REGION r2) -> BOOLEAN. The container
			// stays queryable: r2's runs are one coverage sweep in id
			// order over r1's stored representation (CoversRuns), which
			// on a k³-tree counts rank₁ by cursor.
			Name: "contains", MinArgs: 2, MaxArgs: 2, ProbeOnly: true, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				st := stateOf(call)
				a, err := s.regionOf(call.IO(), call, st.arg(0), args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				b, err := s.regionRuns(call.IO(), call, st.arg(1), args[1])
				if err != nil {
					return sdb.Value{}, err
				}
				ok, err := region.ContainsQ(a, b)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bool(ok), nil
			},
		},
		{
			// containsPoint(REGION r, x, y, z) -> BOOLEAN: point
			// membership. On a k³-tree REGION this is an O(depth) descent
			// over the encoded bitmaps, a one-shot rank₁ a level — no
			// decode, no run list.
			Name: "containsPoint", MinArgs: 4, MaxArgs: 4, ProbeOnly: true, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				q, err := s.regionOf(call.IO(), call, stateOf(call).arg(0), args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				if q.Curve().Dim() != 3 {
					return sdb.Value{}, fmt.Errorf("containsPoint: REGION is %dD, want 3D", q.Curve().Dim())
				}
				side := int64(1) << uint(q.Curve().Bits())
				var c [3]uint32
				for i, a := range args[1:] {
					if a.T != sdb.TInt || a.I < 0 || a.I >= side {
						return sdb.Value{}, fmt.Errorf("containsPoint: coordinate %d must be in [0,%d)", i+1, side)
					}
					c[i] = uint32(a.I)
				}
				return sdb.Bool(q.ContainsID(q.Curve().ID(sfc.Pt(c[0], c[1], c[2])))), nil
			},
		},
		{
			// EXTRACT_DATA(VOLUME v, REGION r) -> DATA_REGION
			Name: "extractVoxels", MinArgs: 2, MaxArgs: 2, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TLong {
					return sdb.Value{}, fmt.Errorf("extractVoxels: first argument must be a VOLUME long field, got %s", args[0].T)
				}
				st := stateOf(call)
				r, err := s.regionRuns(call.IO(), call, st.arg(1), args[1])
				if err != nil {
					return sdb.Value{}, err
				}
				if err := s.onCurve(r); err != nil {
					return sdb.Value{}, err
				}
				blob, err := extractStoredBlob(&s.free.bytes, call.IO(), args[0].L, r, s.extractOpts(), s.Cfg.Method)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bytes(blob), nil
			},
		},
		{
			// fullVolume(VOLUME v) -> DATA_REGION over the whole grid
			// (the "flat file" access path of query Q1).
			Name: "fullVolume", MinArgs: 1, MaxArgs: 1,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TLong {
					return sdb.Value{}, fmt.Errorf("fullVolume: argument must be a VOLUME long field, got %s", args[0].T)
				}
				// The whole grid is one run, so this is extractVoxels' read
				// plan with a single range: one read of the whole field,
				// every page straight into the blob.
				blob, err := extractStoredBlob(&s.free.bytes, call.IO(), args[0].L, s.full, s.extractOpts(), s.Cfg.Method)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bytes(blob), nil
			},
		},
		{
			// boxRegion(x0,y0,z0,x1,y1,z1) -> REGION for geometric probes
			// such as Q2's rectangular solid.
			Name: "boxRegion", MinArgs: 6, MaxArgs: 6, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				var c [6]uint32
				for i, a := range args {
					if a.T != sdb.TInt || a.I < 0 || a.I > math.MaxUint32 {
						return sdb.Value{}, fmt.Errorf("boxRegion: argument %d must be an integer in [0, %d]", i+1, uint32(math.MaxUint32))
					}
					c[i] = uint32(a.I)
				}
				st := stateOf(call)
				r, err := st.result().box(s.Curve, region.Box{
					Min: sfc.Pt(c[0], c[1], c[2]),
					Max: sfc.Pt(c[3], c[4], c[5]),
				})
				if err != nil {
					return sdb.Value{}, err
				}
				return s.parsed(st, r), nil
			},
		},
		{
			// numVoxels never needs a run list: the k³-tree header carries
			// the count, so a compressed REGION answers from 12 bytes.
			Name: "numVoxels", MinArgs: 1, MaxArgs: 1, ProbeOnly: true, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				q, err := s.regionOf(call.IO(), call, stateOf(call).arg(0), args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Int(int64(q.NumVoxels())), nil
			},
		},
		{
			Name: "numRuns", MinArgs: 1, MaxArgs: 1, State: s.newCallState,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				r, err := s.regionRuns(call.IO(), call, stateOf(call).arg(0), args[0])
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Int(int64(r.NumRuns())), nil
			},
		},
		{
			// avgIntensity(DATA_REGION) -> FLOAT, a statistical response
			// over an extraction.
			Name: "avgIntensity", MinArgs: 1, MaxArgs: 1,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TBytes {
					return sdb.Value{}, fmt.Errorf("avgIntensity: argument must be a DATA_REGION")
				}
				d, err := UnmarshalDataRegion(args[0].Y)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Float(d.Stats().Mean), nil
			},
		},
	}
	for _, u := range udfs {
		if err := s.DB.RegisterUDF(u); err != nil {
			return err
		}
	}
	return nil
}

// regionBinop evaluates a binary spatial operator on run lists on the
// server's curve.
func (s *Server) regionBinop(call *sdb.Call, args []sdb.Value,
	op func(a, b *region.Region) (*region.Region, error)) (sdb.Value, error) {
	st := stateOf(call)
	a, err := s.regionRuns(call.IO(), call, st.arg(0), args[0])
	if err != nil {
		return sdb.Value{}, err
	}
	b, err := s.regionRuns(call.IO(), call, st.arg(1), args[1])
	if err != nil {
		return sdb.Value{}, err
	}
	if err := s.onCurve(a, b); err != nil {
		return sdb.Value{}, err
	}
	out, err := op(a, b)
	if err != nil {
		return sdb.Value{}, err
	}
	return s.parsed(st, out), nil
}

// intersect returns a ∩ b on a's curve, computed on the compact form
// wherever an operand has one: a k³-tree meets the other operand's run
// list by a walk of its bytes, and two run lists merge. Of two k³-trees,
// the one with the smaller encoding becomes a run list in its own slot
// (runsOf) for the other's walk to meet — at paper scale half the time
// of a descent through both trees in step (DESIGN.md §7). The canonical
// run list is the same whichever way it is computed. Both operands are
// on one curve (onCurve). The result is dst's Region, refilled (a new
// one when dst is nil), so dst must hold neither operand.
func intersect(dst, sa, sb *regionSlot, a, b region.Queryable) (*region.Region, error) {
	pa, aK3 := a.(*rencode.K3Probe)
	pb, bK3 := b.(*rencode.K3Probe)
	var err error
	switch {
	case aK3 && bK3 && pa.Size() < pb.Size():
		a, err = runsOf(sa, pa)
	case aK3 && bK3:
		b, err = runsOf(sb, pb)
	}
	if err != nil {
		return nil, err
	}
	var runs []region.Run
	if pb, ok := b.(*rencode.K3Probe); ok {
		runs = pb.IntersectRunsInto(a.(*region.Region).RunsView(), dst.runsBuf())
	} else {
		runs = a.IntersectRunsInto(b.(*region.Region).RunsView(), dst.runsBuf())
	}
	return dst.refill(a.Curve(), runs)
}

// runsOf returns a REGION as a run list, materializing a k³-tree probe
// into slot (a new Region when slot is nil).
func runsOf(slot *regionSlot, q region.Queryable) (*region.Region, error) {
	if p, ok := q.(*rencode.K3Probe); ok {
		return slot.refill(p.Curve(), p.RunsInto(slot.runsBuf()))
	}
	return q.(*region.Region), nil
}

// onCurve refuses an operand that is not on the server's curve, with an
// error wrapping rencode.ErrCurveMismatch, as the population fold
// refuses a row on another curve. The server stores every VOLUME and
// REGION in its own order, so only a REGION built by hand reaches this.
func (s *Server) onCurve(operands ...region.Queryable) error {
	for _, q := range operands {
		if c := q.Curve(); !region.SameCurve(c, s.Curve) {
			return fmt.Errorf("%w: a %s %dD/%db REGION on a %s %dD/%db server", rencode.ErrCurveMismatch,
				c.Kind(), c.Dim(), c.Bits(), s.Curve.Kind(), s.Curve.Dim(), s.Curve.Bits())
		}
	}
	return nil
}

// parsedRegion is a REGION one spatial function returns to the function
// around it, still parsed: a run list, or a k³-tree probe over the
// stored bytes. sdb carries it as an Object, so it is encoded — in the
// wire codec, Config.Method — only where it leaves that call chain, as
// a REGION-valued SQL result. Nothing holds it past the
// statement: sdb keeps no Object in a row, and drops its argument
// vectors after each call. It and what it points to usually live in the
// returning call site's callState, valid until that site runs again.
type parsedRegion struct {
	q      region.Queryable
	method rencode.Method
}

// parsed wraps a REGION result for the calls around it: in the call
// site's state, or a new one outside an execution (st nil).
func (s *Server) parsed(st *callState, q region.Queryable) sdb.Value {
	if st == nil {
		return sdb.Obj(&parsedRegion{q: q, method: s.Cfg.Method})
	}
	st.obj = parsedRegion{q: q, method: s.Cfg.Method}
	return sdb.Obj(&st.obj)
}

// Encode is the REGION's BYTES form.
func (p *parsedRegion) Encode() ([]byte, error) {
	r, err := runsOf(nil, p.q)
	if err != nil {
		return nil, err
	}
	return rencode.Encode(p.method, r)
}

// Per-access representation counters: how often a stored or encoded
// REGION was answered on its compressed bytes versus materialized as a
// run list. They feed the benchmark's per-layer rows and EXPLAIN
// ANALYZE.
const (
	metricRegionProbes  = "qbism_region_probe_total"
	metricRegionDecodes = "qbism_region_decode_total"
)

// regionOf is the server's one accessor for a REGION-valued SQL value:
//   - LONG, a stored REGION, read on io's bill;
//   - BYTES, an encoded REGION, or the DATA_REGION blob whose region it
//     is;
//   - OBJECT, the parsed REGION another function of the same statement
//     returned (parsedRegion), taken as it is.
//
// An encoded k³-tree comes back as a *rencode.K3Probe, whose probes and
// intersections answer on the encoded bytes, unless runs is set; every
// other encoding, and a k³-tree when the caller needs the run list,
// comes back a *region.Region. Each stored or encoded REGION read counts
// once, as a probe when it stays encoded and as a decode when it
// becomes runs; a parsed one is not counted again. call — nil outside
// a statement — has the probe noted on its operator as well.
//
// A stored field is read into slot, a k³-tree parsed into it and run
// lists built in it, so what comes back is slot's until its next use;
// with a nil slot everything is new. A DATA_REGION decodes to a new
// Region either way.
func (s *Server) regionOf(io *lfm.IO, call *sdb.Call, slot *regionSlot, v sdb.Value, runs bool) (region.Queryable, error) {
	var data []byte
	switch v.T {
	case sdb.TObject:
		p, ok := v.O.(*parsedRegion)
		if !ok {
			return nil, fmt.Errorf("qbism: expected a REGION, got a %T", v.O)
		}
		if runs {
			return runsOf(slot, p.q)
		}
		return p.q, nil
	case sdb.TLong:
		d, err := slot.read(io, v.L)
		if err != nil {
			return nil, err
		}
		data = d
	case sdb.TBytes:
		if len(v.Y) > 0 && v.Y[0] == dataRegionTag {
			d, err := UnmarshalDataRegion(v.Y)
			if err != nil {
				return nil, err
			}
			s.metrics.Counter(metricRegionDecodes).Inc()
			return d.Region, nil
		}
		data = v.Y
	default:
		return nil, fmt.Errorf("qbism: expected a REGION (LONG or BYTES), got %s", v.T)
	}
	if m, _ := rencode.MethodOf(data); m == rencode.K3Tree && !runs {
		p, err := slot.parse(data)
		if err != nil {
			return nil, err
		}
		s.metrics.Counter(metricRegionProbes).Inc()
		if call != nil {
			call.NoteProbe()
		}
		return p, nil
	}
	r, err := slot.decode(data)
	if err != nil {
		return nil, err
	}
	s.metrics.Counter(metricRegionDecodes).Inc()
	return r, nil
}

// regionRuns is regionOf for a caller that needs the run list.
func (s *Server) regionRuns(io *lfm.IO, call *sdb.Call, slot *regionSlot, v sdb.Value) (*region.Region, error) {
	q, err := s.regionOf(io, call, slot, v, true)
	if err != nil {
		return nil, err
	}
	return q.(*region.Region), nil
}

// callState is a spatial function's working memory at one call site
// (sdb.UDF.State): the REGIONs of its arguments read, parsed and
// decoded into slots it keeps, and the REGION it returns. Every call
// refills what it uses. A call's result points into it only as the
// parsedRegion Object, as sdb's contract allows; the DATA_REGION blob
// extractVoxels returns is the caller's, taken from the server's free
// list of reply buffers because it becomes the reply (replies.go), and
// extraction gathers the voxels straight into it. Its methods take a
// nil *callState — no execution, so no state — and then hand out
// nothing, so that the callee allocates.
type callState struct {
	args [2]regionSlot
	out  regionSlot // the result's run list; out's field and probe stay unused
	obj  parsedRegion
}

// regionSlot is the memory one REGION is read, parsed and materialized
// into. A nil *regionSlot is no memory: its methods allocate.
//
// A buffer over sdb.MaxIdleBytes does not idle with the slot: reset gives
// it to the server's free list and keeps only its capacity, and the
// slot's next read or run list takes one that large back (reuse). So an
// idle statement pins nothing large, and a paper-scale call builds in a
// buffer an earlier call grew.
type regionSlot struct {
	field []byte          // the stored REGION, read whole
	probe rencode.K3Probe // field, when it is a k³-tree
	// reg is the run list last materialized here; its backing is where
	// the next one is built.
	reg  region.Region
	free *freeLists // the server's
	// fieldCap and runsCap are the capacities of the field and run list
	// reset gave to free; 0 when the slot holds its own.
	fieldCap, runsCap int
}

// newCallState is the spatial functions' sdb.UDF.State hook: a call
// site's state, its slots giving back to the server's free lists.
func (s *Server) newCallState() sdb.SiteState { return newCallState(&s.free) }

func newCallState(free *freeLists) *callState {
	st := &callState{out: regionSlot{free: free}}
	for i := range st.args {
		st.args[i].free = free
	}
	return st
}

// stateOf returns call's site state; nil outside an execution.
func stateOf(call *sdb.Call) *callState {
	st, _ := call.State().(*callState)
	return st
}

// arg returns the slot of REGION argument i.
func (st *callState) arg(i int) *regionSlot {
	if st == nil {
		return nil
	}
	return &st.args[i]
}

// result returns the slot results are built in.
func (st *callState) result() *regionSlot {
	if st == nil {
		return nil
	}
	return &st.out
}

// Reset implements sdb.SiteState: the tree is going idle.
func (st *callState) Reset() {
	for i := range st.args {
		st.args[i].reset()
	}
	st.out.reset()
	st.obj = parsedRegion{}
}

func (s *regionSlot) reset() {
	// The probe's level table holds at most a tree's depth of levels.
	s.probe.Reset()
	s.field = giveBack(&s.free.bytes, s.field, &s.fieldCap)
	if runs := s.reg.RunsView(); giveBack(&s.free.runs, runs, &s.runsCap) == nil {
		s.reg = region.Region{}
	}
}

// giveBack is reset's rule for one buffer: one larger than an idle state
// may keep (sdb.MaxIdleBytes) goes to l, its capacity to *keep, and nil
// comes back; any other comes back as it is.
func giveBack[E freeElem](l *freeList[E], buf []E, keep *int) []E {
	if sizeOf(buf) <= sdb.MaxIdleBytes {
		return buf
	}
	*keep = cap(buf)
	l.Put(buf)
	return nil
}

// reuse is the backing a slot's next build starts from, emptied: buf,
// or — when reset gave the last one away (*keep > 0) — one of that
// capacity taken back from l.
func reuse[E freeElem](l *freeList[E], buf []E, keep *int) []E {
	if *keep > 0 {
		buf, *keep = l.Get(*keep), 0
	}
	return buf[:0]
}

// read reads the stored REGION h whole on io's bill, into the slot's
// field buffer.
func (s *regionSlot) read(io *lfm.IO, h lfm.Handle) ([]byte, error) {
	if s == nil {
		return io.Read(h)
	}
	s.field = reuse(&s.free.bytes, s.field, &s.fieldCap)
	d, err := io.ReadInto(h, s.field)
	if err != nil {
		return nil, err
	}
	s.field = d
	return d, nil
}

// parse parses a k³-tree into the slot's probe.
func (s *regionSlot) parse(data []byte) (*rencode.K3Probe, error) {
	if s == nil {
		return rencode.ParseK3(data)
	}
	if err := s.probe.Parse(data); err != nil {
		return nil, err
	}
	return &s.probe, nil
}

// decode decodes an encoded REGION to its run list, the slot's: a
// k³-tree through the slot's probe, any other codec straight into the
// run list's backing (rencode.DecodeInto). Without a slot the Region is
// new.
func (s *regionSlot) decode(data []byte) (*region.Region, error) {
	if s == nil {
		return rencode.Decode(data)
	}
	if m, _ := rencode.MethodOf(data); m == rencode.K3Tree {
		p, err := s.parse(data)
		if err != nil {
			return nil, err
		}
		return runsOf(s, p)
	}
	if err := rencode.DecodeInto(&s.reg, data, s.runsBuf()); err != nil {
		return nil, err
	}
	return &s.reg, nil
}

// runsBuf is the backing the slot's next run list is built in.
func (s *regionSlot) runsBuf() []region.Run {
	if s == nil {
		return nil
	}
	return reuse(&s.free.runs, s.reg.RunsView(), &s.runsCap)
}

// box builds the box's REGION in the slot (region.FromBoxInto).
func (s *regionSlot) box(c sfc.Curve, b region.Box) (*region.Region, error) {
	if s == nil {
		return region.FromBox(c, b)
	}
	if err := region.FromBoxInto(&s.reg, c, b, s.runsBuf()); err != nil {
		return nil, err
	}
	return &s.reg, nil
}

// refill makes runs, on curve c, the slot's Region.
func (s *regionSlot) refill(c sfc.Curve, runs []region.Run) (*region.Region, error) {
	if s == nil {
		return region.FromOwnedRuns(c, runs)
	}
	if err := s.reg.Refill(c, runs); err != nil {
		return nil, err
	}
	return &s.reg, nil
}
