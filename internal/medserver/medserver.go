package medserver

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"qbism/internal/lfm"
	"qbism/internal/obs"
	"qbism/internal/sdb"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// QuerySpec is the high-level query a user composes in the DX entry
// fields; the MedicalServer translates it into SQL (Section 5.2's
// "division of labor").
type QuerySpec struct {
	StudyID int
	Atlas   string // atlas name, e.g. "Talairach"

	// FullStudy requests the entire VOLUME (query Q1).
	FullStudy bool
	// Structure restricts spatially to a named anatomical structure
	// (queries Q3, Q4).
	Structure string
	// Box restricts spatially to a rectangular solid, inclusive corners
	// (x0,y0,z0,x1,y1,z1) — query Q2.
	Box *[6]uint32
	// HasBand restricts by intensity to [BandLo, BandHi], which must
	// match a stored band (queries Q5, Q6).
	HasBand bool
	BandLo  int
	BandHi  int
	// Encoding selects the band REGION encoding. Empty reads the row
	// Config.Rencode makes the default (Server.BandEncoding): EncK3Tree in
	// auto mode, EncHilbertNaive in runs mode, a forced method's own label.
	Encoding string
}

// Key returns a cache key identifying the query: the spec's wire bytes
// (wire.go), the header of the request EncodeQueryRequest builds. Every
// field is in them, so distinct specs a server would accept never share
// a key. (A spec with a string too long for the wire has no request;
// RunQuery refuses it before anything is cached under its key.)
func (q QuerySpec) Key() string {
	n, _ := specSize(&q)
	return string(appendSpec(make([]byte, 0, n), &q))
}

// Label names the query in reports: "study 3: putamen in band 32-63".
// It is built in a stack buffer, so the string is its one allocation
// (unless a long structure name outgrows the buffer).
func (q QuerySpec) Label() string {
	var buf [192]byte
	b := strconv.AppendInt(append(buf[:0], "study "...), int64(q.StudyID), 10)
	b = append(b, ':', ' ')
	start := len(b)
	part := func() {
		if len(b) > start {
			b = append(b, " in "...)
		}
	}
	if q.FullStudy {
		b = append(b, "entire study"...)
	}
	if q.Box != nil {
		part()
		b = append(b, "box ("...)
		for i, c := range q.Box {
			switch i {
			case 1, 2, 4, 5:
				b = append(b, ',')
			case 3:
				b = append(b, ")-("...)
			}
			b = strconv.AppendUint(b, uint64(c), 10)
		}
		b = append(b, ')')
	}
	if q.Structure != "" {
		part()
		b = append(b, q.Structure...)
	}
	if q.HasBand {
		part()
		b = strconv.AppendInt(append(b, "band "...), int64(q.BandLo), 10)
		b = strconv.AppendInt(append(b, '-'), int64(q.BandHi), 10)
	}
	if len(b) == start {
		b = append(b, "empty spec"...)
	}
	return string(b)
}

// QueryMeta is the server-side response header: atlas coordinate-space
// and patient information from the first SQL query (needed for
// rendering and annotation), plus server-side measurement counters.
type QueryMeta struct {
	N         int
	DX        float64
	DY        float64
	DZ        float64
	AtlasID   int
	Patient   string
	PatientID int
	Date      string

	DBCPUNanos int64 // measured handler CPU (wall) time
	// The I/O counters are this query's own bill — the sum of what its
	// statements and the band fallback read, counted read by read
	// (lfm.IO) — so they are exact however many queries run at once.
	LFMPages uint64 // 4 KB device pages read for the query
	LFMReads uint64 // LFM read operations (seek-count proxy)
	// CacheHits/CacheMisses are the LFM page-cache counters for this
	// query (zero when the cache is disabled). With the cache on,
	// LFMPages counts only device transfers (misses), so LFMPages +
	// CacheHits ≈ the unbuffered protocol's page count.
	CacheHits   uint64
	CacheMisses uint64

	// Degraded is set when the server answered through a slow fallback
	// path — e.g. the intensityBand REGION was missing or failed its
	// checksum, so the band was recomputed from the stored VOLUME. The
	// result is still exact; Warning says what happened.
	Degraded bool
	Warning  string
}

// QueryMethod is the wire method name of a medical query: what a Client
// calls, and what a raw Transport caller uses to reach the server.
const QueryMethod = "medicalQuery"

// ServeRPC is the server's transport.Handler: it dispatches a framed RPC
// by method name. A daemon serves it over TCP and the in-process
// transport.Sim calls it between two link crossings, so both flavors run
// identical server code. Unknown methods fail with
// transport.ErrUnknownMethod (typed, terminal), so a version-skewed
// client gets a classifiable refusal instead of a hang.
func (s *Server) ServeRPC(sp *obs.Span, method string, request []byte) ([]byte, error) {
	switch method {
	case QueryMethod:
		return s.handleMedicalQuery(sp, request)
	default:
		return nil, fmt.Errorf("qbism: %w: %q", transport.ErrUnknownMethod, method)
	}
}

// handleMedicalQuery is the MedicalServer RPC handler: it receives a
// framed QuerySpec, generates and executes the SQL, and returns the
// framed response (meta header + DataRegion blob). The frame CRC on
// the way in means a request corrupted in flight fails with a typed,
// retryable error instead of executing a different query. The decoded
// spec's strings are the catalog's own when it holds them and copies
// otherwise, so nothing here outlives the handler holding request
// (transport.Handler: the buffer is the connection's).
func (s *Server) handleMedicalQuery(sp *obs.Span, request []byte) ([]byte, error) {
	spec, err := decodeQueryRequest(request, s.names)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetStr("query", spec.Label())
	}
	start := time.Now()
	// What this call read: its statements and the band fallback add theirs.
	var bill lfm.Stats

	msp := sp.Child("sql.metadata")
	meta, err := s.runMetadataQuery(msp, &bill, spec)
	msp.End()
	if err != nil {
		return nil, err
	}
	dsp := sp.Child("sql.data")
	blob, warning, err := s.runDataQuery(dsp, &bill, spec)
	dsp.End()
	if err != nil {
		return nil, err
	}
	if warning != "" {
		meta.Degraded = true
		meta.Warning = warning
		// Degradations must be countable: one counter bump and one
		// span annotation per degraded answer.
		s.metrics.Counter("qbism_degraded_total").Inc()
		sp.SetStr("degraded", warning)
	}

	meta.DBCPUNanos = time.Since(start).Nanoseconds()
	meta.LFMPages = bill.PageReads
	meta.LFMReads = bill.Reads
	meta.CacheHits = bill.CacheHits
	meta.CacheMisses = bill.CacheMisses
	sp.SetInt("lfm.pages", int64(bill.PageReads))
	sp.SetInt("lfm.reads", int64(bill.Reads))
	return EncodeQueryResponse(&meta, blob)
}

// querySingle runs a generated SELECT that should yield one row
// (sdb.Stmt.QueryRow): its first row goes into row, which holds one
// value per column, and n counts the rows seen, stopping at two. The
// statement is traced under sp (nil = untraced), and what it read is
// added to bill (nil = nobody is counting).
func querySingle(sp *obs.Span, bill *lfm.Stats, stmt *sdb.Stmt, row []sdb.Value, args ...sdb.Value) (n int, err error) {
	n, io, err := stmt.QueryRow(sp, row, args...)
	if bill != nil {
		bill.Add(io)
	}
	return n, err
}

// runMetadataQuery executes the paper's first §3.4 query: verify the
// warped study exists and fetch atlas space and patient information.
// User-provided strings travel as bind parameters, never spliced text.
func (s *Server) runMetadataQuery(sp *obs.Span, bill *lfm.Stats, spec QuerySpec) (QueryMeta, error) {
	var row [11]sdb.Value
	n, err := querySingle(sp, bill, s.stmts.metadata, row[:],
		sdb.Int(int64(spec.StudyID)), sdb.Str(spec.Atlas))
	if err != nil {
		return QueryMeta{}, err
	}
	if n != 1 {
		return QueryMeta{}, fmt.Errorf("qbism: no warped study %d in atlas %q", spec.StudyID, spec.Atlas)
	}
	return QueryMeta{
		N: int(row[0].I), DX: row[4].F, DY: row[5].F, DZ: row[6].F,
		AtlasID: int(row[7].I), Patient: row[8].S, PatientID: int(row[9].I), Date: row[10].S,
	}, nil
}

// The MedicalServer's SQL. Every request runs the metadata statement
// and one of the five data-query shapes (plus, on the degraded path, the
// band fallback lookups), so New prepares them all once — see
// prepareStatements — and a request only binds values.

// metadataSQL is the paper's first §3.4 query.
const metadataSQL = `
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv,
       warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and
       wv.studyId = rv.studyId and
       rv.patientId = p.patientId and
       rv.studyId = ? and a.atlasName = ?`

// dataShape names one of the shapes the second §3.4 query takes.
type dataShape int

const (
	shapeFullStudy dataShape = iota
	shapeBox
	shapeStructure
	shapeBand
	shapeBandStructure
	numDataShapes
)

// dataShapeSQL is the text of each shape. It mirrors the paper: a call
// to extractVoxels() with, for mixed queries, intersection() nested
// inside and additional joins. Every user-influenced value — study,
// band bounds, encoding, structure and atlas names — binds through `?`
// placeholders, so quote characters in a structure name are data.
var dataShapeSQL = [numDataShapes]string{
	shapeFullStudy: `
select fullVolume(wv.data)
from   warpedVolume wv
where  wv.studyId = ?`,

	shapeBox: `
select extractVoxels(wv.data, boxRegion(?, ?, ?, ?, ?, ?))
from   warpedVolume wv
where  wv.studyId = ?`,

	shapeStructure: `
select extractVoxels(wv.data, as.region)
from   warpedVolume wv, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       wv.atlasId = as.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`,

	shapeBand: `
select extractVoxels(wv.data, ib.region)
from   warpedVolume wv, intensityBand ib
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ?`,

	// Mixed query: intersection() in the select list, extra joins.
	shapeBandStructure: `
select extractVoxels(wv.data, intersection(ib.region, as.region))
from   warpedVolume wv, intensityBand ib, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ? and
       as.atlasId = wv.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`,
}

// The band fallback's lookups (bandSlowPath) and the stored-band fetch
// of ConsistentBandRegion.
const (
	bandVolumeSQL = `
select wv.data
from   warpedVolume wv, atlas a
where  wv.studyId = ? and wv.atlasId = a.atlasId and a.atlasName = ?`

	bandStructureSQL = `
select as.region
from   atlasStructure as, neuralStructure ns, atlas a
where  a.atlasName = ? and as.atlasId = a.atlasId and
       as.structureId = ns.structureId and ns.structureName = ?`

	bandRegionSQL = `
select ib.region
from   intensityBand ib
where  ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`
)

// serverStmts are the prepared forms of the statements above.
type serverStmts struct {
	metadata      *sdb.Stmt
	data          [numDataShapes]*sdb.Stmt
	bandVolume    *sdb.Stmt
	bandStructure *sdb.Stmt
	bandRegion    *sdb.Stmt
}

// prepareStatements compiles the server's statements against the
// loaded catalog. It runs after the spatial UDFs are registered, so
// nothing re-plans unless the catalog changes later.
func (s *Server) prepareStatements() error {
	var first error
	prepare := func(sql string) *sdb.Stmt {
		stmt, err := s.DB.Prepare(sql)
		if err != nil && first == nil {
			first = fmt.Errorf("qbism: preparing server statements: %w", err)
		}
		return stmt
	}
	s.stmts.metadata = prepare(metadataSQL)
	for shape, sql := range dataShapeSQL {
		s.stmts.data[shape] = prepare(sql)
	}
	s.stmts.bandVolume = prepare(bandVolumeSQL)
	s.stmts.bandStructure = prepare(bandStructureSQL)
	s.stmts.bandRegion = prepare(bandRegionSQL)
	return first
}

// dataBinds has room for the bind values of any data shape (shapeBox
// takes the most).
type dataBinds [7]sdb.Value

// dataQuerySQL translates a QuerySpec into the second §3.4 SQL query:
// which prepared shape to run, plus its bind values, written into the
// caller's buf so that a request's bind vector can live on its stack.
// A band spec arrives with its Encoding resolved (BandEncoding). The
// shapes combine a band with a structure and nothing else; any other
// mix of restrictions is refused rather than answered in part.
func dataQuerySQL(spec QuerySpec, buf *dataBinds) (dataShape, []sdb.Value, error) {
	study := sdb.Int(int64(spec.StudyID))
	box, structure, band := spec.Box != nil, spec.Structure != "", spec.HasBand
	switch {
	case spec.FullStudy && (box || structure || band), box && (structure || band):
		return 0, nil, fmt.Errorf("qbism: query spec restrictions conflict (FullStudy=%t Box=%t Structure=%q band=%t): FullStudy and Box each stand alone",
			spec.FullStudy, box, spec.Structure, band)

	case spec.FullStudy:
		return shapeFullStudy, append(buf[:0], study), nil

	case box:
		b := spec.Box
		return shapeBox, append(buf[:0],
			sdb.Int(int64(b[0])), sdb.Int(int64(b[1])), sdb.Int(int64(b[2])),
			sdb.Int(int64(b[3])), sdb.Int(int64(b[4])), sdb.Int(int64(b[5])),
			study), nil

	case structure && !band:
		return shapeStructure, append(buf[:0], study, sdb.Str(spec.Structure)), nil

	case band && !structure:
		return shapeBand, append(buf[:0],
			study, sdb.Int(int64(spec.BandLo)), sdb.Int(int64(spec.BandHi)),
			sdb.Str(spec.Encoding)), nil

	case band && structure:
		return shapeBandStructure, append(buf[:0],
			study, sdb.Int(int64(spec.BandLo)), sdb.Int(int64(spec.BandHi)),
			sdb.Str(spec.Encoding), sdb.Str(spec.Structure)), nil

	default:
		return 0, nil, fmt.Errorf("qbism: query spec selects nothing (set FullStudy, Box, Structure, or a band)")
	}
}

// runDataQuery executes the second §3.4 query as a single-row read
// (querySingle), returning the marshaled DataRegion. Because the planner
// places extractVoxels() in the projection above every pushed filter
// and join, the expensive long-field read only happens for rows that
// survived the WHERE clause — and the executor evaluates it lazily,
// one row at a time, rather than materializing a result set first.
//
// Band queries degrade gracefully: when the stored intensityBand REGION
// is missing, unreadable, or fails its checksum, the band is recomputed
// from the stored VOLUME (the slow path — a full-volume scan, roughly
// Q1's I/O cost) and the returned warning marks the answer Degraded.
// The voxel bytes are identical to what the fast path would return.
// A checksum/read fault surfaces mid-execution, from the row that read
// the field; querySingle returns it like any other failure, so the
// fallback conditions are unchanged.
func (s *Server) runDataQuery(sp *obs.Span, bill *lfm.Stats, spec QuerySpec) (blob []byte, warning string, err error) {
	// An unspecified band encoding resolves to the mode's default row
	// before SQL generation, so the generated query binds a concrete
	// encoding label — the SQL itself stays representation-agnostic.
	if spec.HasBand && spec.Encoding == "" {
		spec.Encoding = s.BandEncoding()
	}
	var binds dataBinds
	shape, args, err := dataQuerySQL(spec, &binds)
	if err != nil {
		return nil, "", err
	}
	var row [1]sdb.Value
	n, err := querySingle(sp, bill, s.stmts.data[shape], row[:], args...)
	if spec.HasBand {
		switch {
		case err != nil && (errors.Is(err, lfm.ErrChecksum) || errors.Is(err, lfm.ErrReadFault)):
			// The stored band REGION (or a joined region) is unreadable.
			return s.bandSlowPath(sp, bill, spec, fmt.Sprintf(
				"stored intensityBand [%d,%d] unreadable (%v); recomputed from VOLUME", spec.BandLo, spec.BandHi, err))
		case err == nil && n == 0:
			// No matching intensityBand row — the band "index" is missing
			// for this [lo,hi]; recompute rather than fail.
			return s.bandSlowPath(sp, bill, spec, fmt.Sprintf(
				"no stored intensityBand [%d,%d]; recomputed from VOLUME", spec.BandLo, spec.BandHi))
		}
	}
	if err != nil {
		return nil, "", err
	}
	if n != 1 {
		return nil, "", fmt.Errorf("qbism: data query returned %d rows (spec %s)", n, spec.Label())
	}
	v := row[0]
	if v.T != sdb.TBytes {
		return nil, "", fmt.Errorf("qbism: data query returned %v, want DATA_REGION bytes", v.T)
	}
	return v.Y, "", nil
}

// bandSlowPath recomputes a band query from first principles when the
// stored intensityBand REGION is unavailable. A pure band query must
// scan every voxel (band membership is a property of the whole VOLUME),
// so it reads the full field and rebuilds the band REGION. A mixed
// band+structure query only needs the structure's voxels: it extracts
// the structure REGION run-pruned (gap-coalesced page I/O, the same
// plan extractVoxels uses) and filters the extracted values to
// [BandLo, BandHi] — band ∩ structure exactly, at structure-footprint
// I/O cost instead of a full-volume read. Both paths produce results
// byte-identical to the intensityBand fast path: the stored band
// REGIONs were built by exactly this scan at load time, and both
// Filter and intersection() yield the same canonical run list for the
// same voxel set.
func (s *Server) bandSlowPath(parent *obs.Span, bill *lfm.Stats, spec QuerySpec, warning string) ([]byte, string, error) {
	if spec.BandLo < 0 || spec.BandHi > 255 || spec.BandLo > spec.BandHi {
		return nil, "", fmt.Errorf("qbism: band [%d,%d] outside the 0-255 intensity range", spec.BandLo, spec.BandHi)
	}
	// The degradation is a traceable event of its own: everything the
	// fallback does nests under a "band.fallback" span carrying the
	// reason, so a trace shows *why* a band query cost Q1-like I/O.
	sp := parent.Child("band.fallback")
	sp.SetStr("reason", warning)
	// What the fallback reads outside SQL goes through io, and from
	// there onto the call's bill and the span.
	io := lfm.IO{M: s.LFM, PerHandle: sp != nil}
	defer func() {
		io.Spans(sp)
		sp.End()
		bill.Add(io.Stats)
	}()
	var row [1]sdb.Value
	n, err := querySingle(sp, bill, s.stmts.bandVolume, row[:],
		sdb.Int(int64(spec.StudyID)), sdb.Str(spec.Atlas))
	if err != nil {
		return nil, "", err
	}
	if n != 1 {
		return nil, "", fmt.Errorf("qbism: no warped study %d in atlas %q", spec.StudyID, spec.Atlas)
	}
	volHandle := row[0].L

	if spec.Structure != "" {
		var srow [1]sdb.Value
		sn, err := querySingle(sp, bill, s.stmts.bandStructure, srow[:],
			sdb.Str(spec.Atlas), sdb.Str(spec.Structure))
		if err != nil {
			return nil, "", err
		}
		if sn != 1 {
			return nil, "", fmt.Errorf("qbism: no structure %q in atlas %q", spec.Structure, spec.Atlas)
		}
		sr, err := s.regionRuns(&io, nil, nil, srow[0])
		if err != nil {
			return nil, "", fmt.Errorf("qbism: band slow path: %w", err)
		}
		if sr.Curve().Kind() != s.Curve.Kind() {
			if sr, err = sr.Recode(s.Curve); err != nil {
				return nil, "", err
			}
		}
		sd, err := extractStored(&io, volHandle, sr, s.extractOpts())
		if err != nil {
			return nil, "", fmt.Errorf("qbism: band slow path: %w", err)
		}
		d, err := sd.Filter(uint8(spec.BandLo), uint8(spec.BandHi))
		if err != nil {
			return nil, "", err
		}
		blob, err := MarshalDataRegion(d, s.Cfg.Method)
		if err != nil {
			return nil, "", err
		}
		return blob, warning, nil
	}
	volBytes, err := io.Read(volHandle)
	if err != nil {
		return nil, "", fmt.Errorf("qbism: band slow path: %w", err)
	}
	vol, err := volume.New(s.Curve, volBytes)
	if err != nil {
		return nil, "", err
	}
	r, err := vol.Band(uint8(spec.BandLo), uint8(spec.BandHi))
	if err != nil {
		return nil, "", err
	}
	// The VOLUME is in memory already: its band's voxels go from there
	// into the blob, run by run.
	blob, values, err := newDataRegionBlob(r, s.Cfg.Method)
	if err != nil {
		return nil, "", err
	}
	for _, run := range r.Runs() {
		values = values[copy(values, volBytes[run.Lo:run.Hi+1]):]
	}
	return blob, warning, nil
}
