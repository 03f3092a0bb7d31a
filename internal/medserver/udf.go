package medserver

import (
	"fmt"

	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
)

// registerSpatialUDFs installs the spatial operators of Section 3.2 (and
// the helpers the MedicalServer's generated SQL uses) as user-defined
// SQL functions, the way the prototype extended Starburst. Each carries
// a relative Cost hint so the planner orders same-level predicates
// cheapest-first: voxel extraction (a long-field read) is priced far
// above region algebra, which is priced above pure geometry like
// boxRegion.
func (s *Server) registerSpatialUDFs() error {
	udfs := []*sdb.UDF{
		{
			// INTERSECTION(REGION r1, REGION r2) -> REGION. The first
			// operand stays queryable: a k³-tree band intersects the
			// structure's run list by pruned tree descent on the encoded
			// bytes, never materializing its own runs.
			Name: "intersection", MinArgs: 2, MaxArgs: 2, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				a, err := s.queryableFromValue(call, args[0])
				if err != nil {
					return sdb.Value{}, err
				}
				b, err := RegionFromValue(call.IO(), args[1])
				if err != nil {
					return sdb.Value{}, err
				}
				if a.Curve().Kind() != b.Curve().Kind() {
					if b, err = b.Recode(a.Curve()); err != nil {
						return sdb.Value{}, err
					}
				}
				out, err := region.IntersectQ(a, b)
				if err != nil {
					return sdb.Value{}, err
				}
				return s.encodeRegionValue(out)
			},
		},
		{
			// UNION(r1, r2), mentioned as a straightforward extension.
			Name: "unionRegion", MinArgs: 2, MaxArgs: 2, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				return s.regionBinop(call, args, region.Union)
			},
		},
		{
			// DIFFERENCE(r1, r2), likewise.
			Name: "differenceRegion", MinArgs: 2, MaxArgs: 2, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				return s.regionBinop(call, args, region.Difference)
			},
		},
		{
			// CONTAINS(REGION r1, REGION r2) -> BOOLEAN. The container
			// stays queryable: each run of r2 is one coverage probe
			// against r1's stored representation.
			Name: "contains", MinArgs: 2, MaxArgs: 2, Cost: 20, ProbeOnly: true,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				a, err := s.queryableFromValue(call, args[0])
				if err != nil {
					return sdb.Value{}, err
				}
				b, err := RegionFromValue(call.IO(), args[1])
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
			// over the encoded bitmaps — no decode, no run list — which
			// is why its Cost sits just above boxRegion's.
			Name: "containsPoint", MinArgs: 4, MaxArgs: 4, Cost: 2, ProbeOnly: true,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				q, err := s.queryableFromValue(call, args[0])
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
			Name: "extractVoxels", MinArgs: 2, MaxArgs: 2, Cost: 100,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TLong {
					return sdb.Value{}, fmt.Errorf("extractVoxels: first argument must be a VOLUME long field, got %s", args[0].T)
				}
				r, err := RegionFromValue(call.IO(), args[1])
				if err != nil {
					return sdb.Value{}, err
				}
				// VOLUMEs are stored in the system's Hilbert order;
				// regions arriving in another order are recoded first.
				if r.Curve().Kind() != s.Curve.Kind() {
					if r, err = r.Recode(s.Curve); err != nil {
						return sdb.Value{}, err
					}
				}
				blob, err := extractStoredBlob(call.IO(), args[0].L, r, s.extractOpts(), s.Cfg.Method)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bytes(blob), nil
			},
		},
		{
			// fullVolume(VOLUME v) -> DATA_REGION over the whole grid
			// (the "flat file" access path of query Q1).
			Name: "fullVolume", MinArgs: 1, MaxArgs: 1, Cost: 100,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TLong {
					return sdb.Value{}, fmt.Errorf("fullVolume: argument must be a VOLUME long field, got %s", args[0].T)
				}
				// The whole grid is one run, so this is extractVoxels' read
				// plan with a single range: one read of the whole field,
				// straight into the blob.
				blob, err := extractStoredBlob(call.IO(), args[0].L, region.Full(s.Curve), s.extractOpts(), s.Cfg.Method)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bytes(blob), nil
			},
		},
		{
			// boxRegion(x0,y0,z0,x1,y1,z1) -> REGION for geometric probes
			// such as Q2's rectangular solid.
			Name: "boxRegion", MinArgs: 6, MaxArgs: 6, Cost: 1,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				var c [6]uint32
				for i, a := range args {
					if a.T != sdb.TInt || a.I < 0 {
						return sdb.Value{}, fmt.Errorf("boxRegion: argument %d must be a non-negative integer", i+1)
					}
					c[i] = uint32(a.I)
				}
				r, err := region.FromBox(s.Curve, region.Box{
					Min: sfc.Pt(c[0], c[1], c[2]),
					Max: sfc.Pt(c[3], c[4], c[5]),
				})
				if err != nil {
					return sdb.Value{}, err
				}
				return s.encodeRegionValue(r)
			},
		},
		{
			// nIntersect(r1, ..., rn) -> REGION: the n-way spatial
			// intersection of the multi-study queries (Table 4).
			Name: "nIntersect", MinArgs: 1, MaxArgs: -1, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				// Compressed probes stay encoded; everything else
				// materializes and, when stored in another order (z,
				// octant), normalizes onto the system curve.
				var probes []region.Queryable
				var regions []*region.Region
				for _, a := range args {
					q, err := s.queryableFromValue(call, a)
					if err != nil {
						return sdb.Value{}, err
					}
					if r, ok := q.(*region.Region); ok {
						rc, err := r.Recode(s.curveFor(r))
						if err != nil {
							return sdb.Value{}, err
						}
						regions = append(regions, rc)
						continue
					}
					probes = append(probes, q)
				}
				var out *region.Region
				var err error
				if len(regions) > 0 {
					if out, err = region.IntersectN(regions...); err != nil {
						return sdb.Value{}, err
					}
				} else {
					out = region.Full(probes[0].Curve())
				}
				// Each probe then prunes the accumulated run list on its
				// encoded bytes — the narrowest operand first would prune
				// hardest, but argument order keeps results reproducible.
				for _, p := range probes {
					if out, err = region.IntersectQ(p, out); err != nil {
						return sdb.Value{}, err
					}
				}
				return s.encodeRegionValue(out)
			},
		},
		{
			// numVoxels never needs a run list: the k³-tree header carries
			// the count, so a compressed REGION answers from 12 bytes.
			Name: "numVoxels", MinArgs: 1, MaxArgs: 1, Cost: 10, ProbeOnly: true,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				q, err := s.queryableFromValue(call, args[0])
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Int(int64(q.NumVoxels())), nil
			},
		},
		{
			Name: "numRuns", MinArgs: 1, MaxArgs: 1, Cost: 10,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				r, err := RegionFromValue(call.IO(), args[0])
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Int(int64(r.NumRuns())), nil
			},
		},
		{
			// avgIntensity(DATA_REGION) -> FLOAT, a statistical response
			// over an extraction.
			Name: "avgIntensity", MinArgs: 1, MaxArgs: 1, Cost: 10,
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

// regionBinop evaluates a binary spatial operator, recoding operands
// onto a shared curve if needed.
func (s *Server) regionBinop(call *sdb.Call, args []sdb.Value,
	op func(a, b *region.Region) (*region.Region, error)) (sdb.Value, error) {
	a, err := RegionFromValue(call.IO(), args[0])
	if err != nil {
		return sdb.Value{}, err
	}
	b, err := RegionFromValue(call.IO(), args[1])
	if err != nil {
		return sdb.Value{}, err
	}
	if a.Curve().Kind() != b.Curve().Kind() {
		if b, err = b.Recode(a.Curve()); err != nil {
			return sdb.Value{}, err
		}
	}
	out, err := op(a, b)
	if err != nil {
		return sdb.Value{}, err
	}
	return s.encodeRegionValue(out)
}

// encodeRegionValue wraps a region as an intermediate BYTES value using
// the system's storage encoding.
func (s *Server) encodeRegionValue(r *region.Region) (sdb.Value, error) {
	enc, err := rencode.Encode(s.Cfg.Method, r)
	if err != nil {
		return sdb.Value{}, err
	}
	return sdb.Bytes(enc), nil
}

// curveFor returns the system curve matching a region's grid (the
// system's primary Hilbert curve).
func (s *Server) curveFor(r *region.Region) sfc.Curve {
	if r.Curve().Kind() == s.Curve.Kind() {
		return r.Curve()
	}
	return s.Curve
}

// Per-access representation counters: how often a REGION operand was
// answered on its compressed bytes versus materialized as a run list.
// They feed the benchmark's per-layer rows and EXPLAIN ANALYZE.
const (
	metricRegionProbes  = "qbism_region_probe_total"
	metricRegionDecodes = "qbism_region_decode_total"
)

// queryableFromValue is RegionFromValue's compressed fast path: a
// k³-tree-encoded value comes back as a *rencode.K3Probe, whose probes
// answer directly on the encoded bytes — no run list is ever
// materialized — while every other representation decodes as before
// (a *region.Region is itself Queryable). Long-field reads are charged
// identically on both paths; only the decode is skipped.
func (s *Server) queryableFromValue(call *sdb.Call, v sdb.Value) (region.Queryable, error) {
	var data []byte
	switch v.T {
	case sdb.TLong:
		d, err := call.IO().Read(v.L)
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
			s.noteRegionDecode()
			return d.Region, nil
		}
		data = v.Y
	default:
		return nil, fmt.Errorf("qbism: expected a REGION (LONG or BYTES), got %s", v.T)
	}
	if m, ok := rencode.MethodOf(data); ok && m == rencode.K3Tree {
		p, err := rencode.ParseK3(data)
		if err != nil {
			return nil, err
		}
		s.noteRegionProbe(call)
		return p, nil
	}
	r, err := rencode.Decode(data)
	if err != nil {
		return nil, err
	}
	s.noteRegionDecode()
	return r, nil
}

// noteRegionProbe records one compressed fast-path REGION access, both
// at the qbism level (the policy's demand signal) and at the sdb level
// (the per-operator probe counter EXPLAIN ANALYZE shows).
func (s *Server) noteRegionProbe(call *sdb.Call) {
	call.NoteProbe()
	s.metrics.Counter(metricRegionProbes).Inc()
}

func (s *Server) noteRegionDecode() {
	s.metrics.Counter(metricRegionDecodes).Inc()
}
