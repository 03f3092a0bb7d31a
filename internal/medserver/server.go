// Package medserver is the MedicalServer of the paper (§5.2, Figures 7
// and 8) and the extended DBMS under it: the Figure 1 schema in sdb + lfm,
// the load pipeline that fills it, the spatial operators registered as
// user-defined SQL functions, and the RPC handler that turns a QuerySpec
// into the two §3.4 SQL queries and answers with a framed DATA_REGION.
// It also owns what a client must share with it to talk to it: QuerySpec,
// QueryMeta, their wire forms and the DATA_REGION blob.
//
// The package knows nothing of who asks: it imports no DX front end, no
// cluster and no simulated link, and cmd/qbismd links it without them
// (`make qbismd-deps`). internal/qbism puts a DX Client in front of it.
package medserver

import (
	"fmt"

	"qbism/internal/atlas"
	"qbism/internal/faultsim"
	"qbism/internal/lfm"
	"qbism/internal/obs"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/synth"
	"qbism/internal/volume"
)

// Band-encoding labels stored in the intensityBand.encoding column.
const (
	// EncHilbertNaive is runs in Hilbert order, 8 bytes per run — the
	// default of the paper's experiments (Section 6.1).
	EncHilbertNaive = "h-naive"
	// EncZNaive is runs in Z order, 8 bytes per run.
	EncZNaive = "z-naive"
	// EncOctant is regular octants in Z order, 4 bytes per octant.
	EncOctant = "octant"
	// EncK3Tree is the queryable k³-tree bitmap encoding in Hilbert
	// order: probes (CONTAINS, point membership, interval tests) answer
	// directly on the compressed bytes.
	EncK3Tree = "k3-tree"
)

// Config parameterizes a Server, and every field has a reader here
// (config_test.go). A DX client in its process also reads Workers and
// Trace; what only a client reads is internal/qbism's Options. The repo
// benchmark sets six fields by name (Bits, NumPET, NumMRI, BandWidth,
// SmallStudies, CachePages) and reads sys.Cfg whole (benchmark/layers.go,
// gen.go), so it pins ten names — those six and Method, ReadGapPages,
// WithMeshes and Seed — but not the struct's shape.
type Config struct {
	// Bits is the atlas grid resolution: side = 1<<Bits. The paper uses
	// 7 (128x128x128).
	Bits int
	// NumPET and NumMRI are the study counts (paper: 5 and 3).
	NumPET, NumMRI int
	// Seed drives all synthetic data deterministically.
	Seed uint64
	// Method is the primary REGION storage encoding (default Naive, as
	// in the measured experiments; Elias is the paper's space winner).
	Method rencode.Method
	// Rencode selects the REGION representation strategy. "auto" (the
	// default) stores each band REGION both as runs and as a k³-tree,
	// and band queries that name no encoding read the k³-tree row;
	// atlas structures store the k³-tree unless it is more than 1.5×
	// Method's size. "runs" reproduces the seed exactly (run-list
	// codecs only, no k³ rows). A rencode method name (e.g. "k3-tree",
	// "elias") forces that encoding everywhere.
	Rencode string
	// BandWidth is the intensity band width (default 32 -> 8 bands).
	BandWidth int
	// WithMeshes builds and stores structure surface meshes.
	WithMeshes bool
	// ExtraBandEncodings additionally stores every band REGION in Z-run
	// and octant encodings, enabling the Table 4 comparison.
	ExtraBandEncodings bool
	// SmallStudies shrinks acquisition grids (for tests).
	SmallStudies bool
	// OnlyStudies, when non-nil, loads only the listed study IDs. The
	// full corpus is still *enumerated* — IDs, patients, and synthesis
	// seeds are assigned exactly as for a full load — so a node holding
	// a shard of the corpus stores bytes identical to the same studies
	// in an unsharded system. Non-listed studies are skipped entirely
	// (no rows, no device space). An empty non-nil slice loads nothing.
	OnlyStudies []int
	// DeviceBytes is the LFM device capacity (0 = sized automatically).
	DeviceBytes uint64
	// DevicePath, when set, backs the LFM with a real file at this path
	// instead of simulated memory (the paper's "operating system disk
	// device"). Page accounting is identical.
	DevicePath string

	// Checksums enables per-page CRC32 integrity on the LFM device:
	// written pages are checksummed and reads verify them, so device
	// corruption surfaces as a typed error instead of silent bad data.
	Checksums bool
	// DeviceFaults, when non-nil, injects faults on LFM page I/O (read
	// errors, in-transfer bit flips, write errors, torn pages).
	// Installed after loading.
	DeviceFaults *faultsim.Policy

	// CachePages, when positive, enables a CLOCK page cache of that many
	// 4 KB pages in front of the LFM device. Zero keeps the paper's
	// unbuffered protocol: every page touch is a device read, so Table
	// 3/4 counts reproduce exactly.
	CachePages int
	// ReadGapPages is the largest page gap between two REGION run ranges
	// worth reading through in one contiguous device transfer instead of
	// two seeks (see ExtractOpts.GapPages). Zero reproduces the seed
	// read plan; Model.CoalesceGapPages() is the device break-even.
	ReadGapPages uint64
	// Workers bounds the worker pool of multi-study batches (RunQueries,
	// ConsistentBandRegion). Zero or one means serial.
	Workers int

	// Trace gives the server a tracer (Observers), which a client in its
	// process shares to trace every query end to end. A traced handler runs
	// as concurrently as an untraced one: each call bills its own I/O
	// (lfm.IO), so a span tree's page counts are exact either way.
	Trace bool
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Bits == 0 {
		c.Bits = 7
	}
	if c.NumPET == 0 && c.NumMRI == 0 {
		c.NumPET, c.NumMRI = 5, 3
	}
	if c.BandWidth == 0 {
		c.BandWidth = 32
	}
	if c.Seed == 0 {
		c.Seed = 1993
	}
	if c.Rencode == "" {
		c.Rencode = RencodeAuto
	}
	if c.DeviceBytes == 0 {
		volBytes := uint64(1) << (3 * c.Bits)
		perStudy := volBytes * 8 // warped + bands + slack
		c.DeviceBytes = uint64(c.NumPET+c.NumMRI+2)*perStudy + (64 << 20)
	}
	return c
}

// StudyInfo summarizes one loaded study.
type StudyInfo struct {
	StudyID   int
	PatientID int
	Modality  synth.Modality
}

// Server is a loaded MedicalServer: the database, its long-field device
// and the RPC handler over them. Its methods are safe for concurrent
// use; its fields are fixed once New returns.
type Server struct {
	Cfg    Config
	Curve  sfc.Curve // Hilbert storage order
	ZCurve sfc.Curve // Z order, for encoding comparisons
	LFM    *lfm.Manager
	DB     *sdb.DB
	Atlas  *atlas.Atlas

	// DeviceFaults is the active LFM fault injector (nil when
	// Config.DeviceFaults is unset); its counters feed chaos tests and
	// the CLI's fault report.
	DeviceFaults *faultsim.Injector

	// metrics and tracer are the server's observability sinks (Observers):
	// the registry always, the tracer only under Config.Trace.
	metrics *obs.Registry
	tracer  *obs.Tracer

	AtlasID int
	Studies []StudyInfo

	// BandRegions keeps the per-study Hilbert band REGIONs in memory for
	// the representation experiments (E1-E3); the authoritative copies
	// live in the intensityBand table.
	BandRegions map[int][]volume.BandSpec

	// stmts are the server's statements, prepared once by New
	// (medserver.go) and shared by every request.
	stmts serverStmts
	// full is the whole grid on Curve, fullVolume's REGION.
	full *region.Region
	// names maps each name the catalog holds — atlas and structure names,
	// band encoding labels — to itself, so a request's spec strings come
	// from here instead of being copied (decodeQueryRequest). Read-only
	// once New returns.
	names map[string]string
}

// New builds and loads a server: schema, atlas, synthesized studies
// (generated, registered, warped, banded — the load pipeline of load.go),
// spatial UDFs and the prepared statements ServeRPC runs.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	if err := validateRencode(cfg.Rencode); err != nil {
		return nil, err
	}
	curve, err := sfc.New(sfc.Hilbert, 3, cfg.Bits)
	if err != nil {
		return nil, err
	}
	zcurve := sfc.MustNew(sfc.ZOrder, 3, cfg.Bits)
	var mgr *lfm.Manager
	if cfg.DevicePath != "" {
		dev, derr := lfm.OpenFileDevice(cfg.DevicePath, cfg.DeviceBytes)
		if derr != nil {
			return nil, derr
		}
		mgr, err = lfm.NewFileBacked(dev, lfm.DefaultPageSize)
	} else {
		mgr, err = lfm.New(cfg.DeviceBytes, lfm.DefaultPageSize)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Checksums {
		if cerr := mgr.EnableChecksums(); cerr != nil {
			mgr.Close()
			return nil, cerr
		}
	}
	s := &Server{
		Cfg:         cfg,
		Curve:       curve,
		ZCurve:      zcurve,
		LFM:         mgr,
		DB:          sdb.NewDB(mgr),
		AtlasID:     1,
		BandRegions: make(map[int][]volume.BandSpec),
		full:        region.Full(curve),
	}
	if err := s.createSchema(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.load(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.registerSpatialUDFs(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.prepareStatements(); err != nil {
		s.Close()
		return nil, err
	}
	if s.names, err = s.catalogNames(); err != nil {
		s.Close()
		return nil, err
	}
	// Loading traffic is not part of any measured query.
	s.LFM.ResetStats()
	// Observability attaches only now, for the same reason: metrics and
	// spans describe query traffic, not the load pipeline.
	s.metrics = obs.NewRegistry()
	s.DB.SetMetrics(s.metrics)
	if cfg.Trace {
		s.tracer = obs.NewTracer()
		s.DB.SetTracer(s.tracer)
	}
	// Fault injection starts only now: loading runs on perfect hardware
	// (the paper's load pipeline is out of scope for the fault model),
	// queries run on the configured one.
	if cfg.DeviceFaults != nil {
		s.DeviceFaults = faultsim.New(*cfg.DeviceFaults)
		s.LFM.SetFaults(s.DeviceFaults)
	}
	// The cache likewise covers only query traffic, never the load.
	if cfg.CachePages > 0 {
		s.LFM.EnableCache(cfg.CachePages)
	}
	return s, nil
}

// Observers returns the server's metrics registry and its tracer (nil
// unless Config.Trace) — what a daemon serving it observes into, and what
// a client in the same process shares so that one registry holds both
// halves' series.
func (s *Server) Observers() (*obs.Registry, *obs.Tracer) { return s.metrics, s.tracer }

// Close releases the long-field manager; a file-backed one holds an open
// device file.
func (s *Server) Close() error { return s.LFM.Close() }

// extractOpts returns the read-plan options the spatial UDFs use.
func (s *Server) extractOpts() ExtractOpts {
	return ExtractOpts{GapPages: s.Cfg.ReadGapPages}
}

// createSchema issues the DDL for the Figure 1 schema.
func (s *Server) createSchema() error {
	ddl := []string{
		`create table atlas (atlasId int, atlasName string, n int,
		   x0 float, y0 float, z0 float, dx float, dy float, dz float)`,
		`create table neuralSystem (systemId int, systemName string)`,
		`create table neuralStructure (structureId int, structureName string, systemId int)`,
		`create table atlasStructure (structureId int, atlasId int, region long, surface long)`,
		`create table patient (patientId int, name string, age int, sex string)`,
		`create table rawVolume (studyId int, patientId int, date string, modality string,
		   nx int, ny int, nz int, data long)`,
		`create table warpedVolume (studyId int, atlasId int, warpParams string, data long)`,
		`create table intensityBand (studyId int, atlasId int, lo int, hi int,
		   encoding string, region long)`,
	}
	for _, stmt := range ddl {
		if _, err := s.DB.Exec(stmt); err != nil {
			return fmt.Errorf("qbism: schema: %w", err)
		}
	}
	return nil
}

// catalogNames collects the strings a request names that the catalog
// holds: atlas names, structure names and the encoding labels of the
// stored bands.
func (s *Server) catalogNames() (map[string]string, error) {
	names := make(map[string]string)
	for _, q := range []string{
		`select atlasName from atlas`,
		`select structureName from neuralStructure`,
		`select encoding from intensityBand`,
	} {
		res, err := s.DB.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("qbism: catalog names: %w", err)
		}
		for _, row := range res.Rows {
			names[row[0].S] = row[0].S
		}
	}
	return names, nil
}

// Side returns the atlas grid side length.
func (s *Server) Side() int { return 1 << s.Cfg.Bits }

// PETStudyIDs returns the loaded PET study ids in order.
func (s *Server) PETStudyIDs() []int {
	var out []int
	for _, st := range s.Studies {
		if st.Modality == synth.PET {
			out = append(out, st.StudyID)
		}
	}
	return out
}
