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
	// Encoding selects the stored band row a band query reads: EncK3Tree
	// or its synonym EncHilbertNaive, both over the band's one field.
	// Empty reads EncK3Tree; any other label is refused.
	Encoding string
}

// Key returns a string identifying the query: the spec's wire bytes
// (wire.go), the header of the request EncodeQueryRequest builds. Every
// field is in them, so distinct specs a server would accept never share
// a key. A key built from the spec's fields by value, its box included,
// is equal exactly when Key is; the DX cache keys on such a value, so a
// lookup copies nothing.
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
	// statements read (the band fallback's among them), counted read by
	// read (lfm.IO) — so they are exact however many queries run at once.
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
// by method name — a medical query (QueryMethod) or the population query
// (PopulationMethod). A daemon serves it over TCP and the in-process
// transport.Sim calls it between two link crossings, so both flavors run
// identical server code. The reply is the caller's: Sim's keeps it, and
// the daemon hands it back through ReleaseReply once written. Unknown
// methods fail with transport.ErrUnknownMethod (typed, terminal), so a
// version-skewed client gets a classifiable refusal instead of a hang.
// The store's failures are classified here, for both flavors: a rotted
// page is a transport.ErrNodeFault, a device read fault a retryable
// transport.ErrRemote, each wrapping the store's error.
func (s *Server) ServeRPC(sp *obs.Span, method string, request []byte) (resp []byte, err error) {
	switch method {
	case QueryMethod:
		resp, err = s.handleMedicalQuery(sp, request)
	case PopulationMethod:
		resp, err = s.handlePopulation(sp, request)
	default:
		err = fmt.Errorf("qbism: %w: %q", transport.ErrUnknownMethod, method)
	}
	switch {
	case err == nil:
	case errors.Is(err, lfm.ErrChecksum):
		err = fmt.Errorf("%w: %w", transport.ErrNodeFault, err)
	case errors.Is(err, lfm.ErrReadFault):
		err = fmt.Errorf("%w: %w", transport.ErrRemote, err)
	}
	return resp, err
}

// handleMedicalQuery is the MedicalServer RPC handler: it receives a
// framed QuerySpec, generates and executes the SQL, and returns the
// framed response (meta header + DataRegion blob), built in the buffer
// the data query extracted the voxels into (EncodeQueryResponse). The
// frame CRC on the way in means a request corrupted in flight fails with
// a typed, retryable error instead of executing a different query. The
// decoded spec's strings are the catalog's own when it holds them and
// copies otherwise, so nothing here outlives the handler holding
// request (transport.Handler: the buffer is the connection's). A box is
// decoded onto this frame's stack and travels apart from the spec, whose
// strings the statements' binds keep (decodeQueryRequest).
func (s *Server) handleMedicalQuery(sp *obs.Span, request []byte) ([]byte, error) {
	var room [6]uint32
	spec, box, err := decodeQueryRequest(request, s.names, &room)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetStr("query", labelOf(spec, box))
	}
	start := time.Now()
	// What this call read: each statement it runs adds its reads.
	var bill lfm.Stats

	msp := sp.Child("sql.metadata")
	meta, err := s.runMetadataQuery(msp, &bill, spec)
	msp.End()
	if err != nil {
		return nil, err
	}
	dsp := sp.Child("sql.data")
	blob, warning, err := s.runDataQuery(dsp, &bill, spec, box)
	dsp.End()
	if err != nil {
		return nil, fmt.Errorf("qbism: %s: %w", labelOf(spec, box), err)
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

// labelOf is the Label of spec with box as its Box.
func labelOf(spec QuerySpec, box *[6]uint32) string {
	spec.Box = box
	return spec.Label()
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
// and one of the five data-query shapes (and, on the degraded band path,
// a second shape: the same query without its band), so New prepares
// them all once — see prepareStatements — and a request only binds
// values.

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

// bandRegionSQL is the stored-band fetch of the population query.
const bandRegionSQL = `
select ib.region
from   intensityBand ib
where  ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`

// serverStmts are the prepared forms of the statements above.
type serverStmts struct {
	metadata   *sdb.Stmt
	data       [numDataShapes]*sdb.Stmt
	bandRegion *sdb.Stmt
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
	s.stmts.bandRegion = prepare(bandRegionSQL)
	return first
}

// ReserveExecutions makes n executions of every server statement
// runnable at once without building an operator tree (sdb.Stmt.Reserve):
// the state n concurrent requests leave behind once each statement has
// run n at a time.
func (s *Server) ReserveExecutions(n int) error {
	stmts := append([]*sdb.Stmt{s.stmts.metadata, s.stmts.bandRegion}, s.stmts.data[:]...)
	for _, st := range stmts {
		if err := st.Reserve(n); err != nil {
			return err
		}
	}
	return nil
}

// dataBinds has room for the bind values of any data shape (shapeBox
// takes the most).
type dataBinds [7]sdb.Value

// dataQuerySQL translates a QuerySpec, whose box is box (spec.Box is not
// read), into the second §3.4 SQL query: which prepared shape to run,
// plus its bind values, written into the caller's buf so that a
// request's bind vector can live on its stack.
// A band spec arrives with its Encoding resolved (resolveBandEncoding). The
// shapes combine a band with a structure and nothing else; any other
// mix of restrictions is refused rather than answered in part.
func dataQuerySQL(spec QuerySpec, b *[6]uint32, buf *dataBinds) (dataShape, []sdb.Value, error) {
	study := sdb.Int(int64(spec.StudyID))
	box, structure, band := b != nil, spec.Structure != "", spec.HasBand
	switch {
	case spec.FullStudy && (box || structure || band), box && (structure || band):
		return 0, nil, fmt.Errorf("qbism: query spec restrictions conflict (FullStudy=%t Box=%t Structure=%q band=%t): FullStudy and Box each stand alone",
			spec.FullStudy, box, spec.Structure, band)

	case spec.FullStudy:
		return shapeFullStudy, append(buf[:0], study), nil

	case box:
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
// is missing or has rotted (lfm.ErrChecksum), the query runs again
// without its band and keeps the voxels in the band (bandSlowPath — a
// full-volume read, Q1's I/O cost, unless a structure narrows it), and
// the returned warning marks the answer Degraded. The voxel bytes are
// identical to what the fast path would return. A transient read fault
// fails the call, as ServeRPC's retryable ErrRemote, and the retry reads
// the stored band.
func (s *Server) runDataQuery(sp *obs.Span, bill *lfm.Stats, spec QuerySpec, box *[6]uint32) (blob []byte, warning string, err error) {
	// A band spec's encoding resolves before SQL generation, so the
	// generated query binds a label the store holds — the SQL itself
	// stays representation-agnostic, and a label no row could match fails
	// here rather than degrading to a VOLUME scan below.
	if spec.HasBand {
		if _, err := s.resolveBandEncoding(&spec); err != nil {
			return nil, "", err
		}
	}
	var binds dataBinds
	shape, args, err := dataQuerySQL(spec, box, &binds)
	if err != nil {
		return nil, "", err
	}
	var row [1]sdb.Value
	n, err := querySingle(sp, bill, s.stmts.data[shape], row[:], args...)
	if spec.HasBand {
		switch {
		case errors.Is(err, lfm.ErrChecksum):
			// The stored band REGION (or a joined region) has rotted.
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
		return nil, "", fmt.Errorf("qbism: data query returned %d rows (spec %s)", n, labelOf(spec, box))
	}
	v := row[0]
	if v.T != sdb.TBytes {
		return nil, "", fmt.Errorf("qbism: data query returned %v, want DATA_REGION bytes", v.T)
	}
	return v.Y, "", nil
}

// bandSlowPath answers a band query without its index: it runs the same
// query with the band removed — the structure's shape, or the full
// study's when there is no structure — through the prepared data-shape
// statements, on the call's bill and under a "band.fallback" span, and
// keeps the voxels whose value lies in [BandLo, BandHi]. A pure band
// reads the whole VOLUME (band membership is a property of every voxel);
// a mixed one reads only the structure's voxels, run-pruned as
// extractVoxels always reads. The answer is byte-identical to the
// intensityBand fast path: the stored band REGIONs were built by this
// same filter at load time, and Filter and intersection() yield the
// same canonical run list for the same voxel set.
func (s *Server) bandSlowPath(parent *obs.Span, bill *lfm.Stats, spec QuerySpec, warning string) ([]byte, string, error) {
	if spec.BandLo < 0 || spec.BandHi > 255 || spec.BandLo > spec.BandHi {
		return nil, "", fmt.Errorf("qbism: band [%d,%d] outside the 0-255 intensity range", spec.BandLo, spec.BandHi)
	}
	// The degradation is a traceable event of its own: the unbanded
	// statement nests under a "band.fallback" span carrying the reason,
	// so a trace shows *why* a band query cost Q1-like I/O.
	sp := parent.Child("band.fallback")
	sp.SetStr("reason", warning)
	defer sp.End()
	lo, hi := uint8(spec.BandLo), uint8(spec.BandHi)
	spec.HasBand, spec.BandLo, spec.BandHi, spec.Encoding = false, 0, 0, ""
	spec.FullStudy = spec.Structure == ""
	var binds dataBinds
	shape, args, err := dataQuerySQL(spec, nil, &binds)
	if err != nil {
		return nil, "", err
	}
	var row [1]sdb.Value
	n, err := querySingle(sp, bill, s.stmts.data[shape], row[:], args...)
	if err != nil {
		return nil, "", err
	}
	if n != 1 {
		if spec.Structure != "" {
			return nil, "", fmt.Errorf("qbism: no structure %q in atlas %q", spec.Structure, spec.Atlas)
		}
		return nil, "", fmt.Errorf("qbism: no warped study %d in atlas %q", spec.StudyID, spec.Atlas)
	}
	d, err := UnmarshalDataRegion(row[0].Y)
	if err != nil {
		return nil, "", err
	}
	if d, err = d.Filter(lo, hi); err != nil {
		return nil, "", err
	}
	// Filter copied the in-band voxels and kept no alias of the unbanded
	// blob, which nothing else holds: it goes back to the free list, and
	// the next full-study read is built in it.
	s.free.bytes.Put(row[0].Y)
	blob, err := marshalDataRegion(&s.free.bytes, d, s.Cfg.Method)
	if err != nil {
		return nil, "", err
	}
	return blob, warning, nil
}
