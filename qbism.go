// Package qbism is a from-scratch Go reproduction of "QBISM: Extending a
// DBMS to Support 3D Medical Images" (Arya, Cody, Faloutsos, Richardson,
// Toga — ICDE 1994): a prototype for querying and visualizing 3D medical
// images built on an extensible relational DBMS.
//
// The package re-exports the stable public surface of the internal
// implementation:
//
//   - Space-filling curves (Hilbert, Z order, scanline) over 3D grids.
//   - The REGION data type — an arbitrary voxel set stored as runs along
//     a curve — with the paper's spatial operators (INTERSECTION,
//     CONTAINS, UNION, DIFFERENCE) and octant decompositions.
//   - REGION storage encodings (naive runs, Elias γ/δ, Golomb, varint,
//     oblong octants, octants) and the entropy lower bound.
//   - The VOLUME data type — a complete scalar field stored in curve
//     order — with EXTRACT_DATA and intensity banding.
//   - Affine warping and landmark registration (patient → atlas space).
//   - The assembled system: a mini extensible DBMS with long fields and
//     user-defined SQL functions, a buddy-allocating Long Field Manager
//     with 4 KB-page I/O accounting, the MedicalServer, the DX Client
//     that queries it (a Data Explorer stand-in: import, render, cache —
//     the same client in a single node and a sharded cluster), a
//     simulated RPC link with a 1993-calibrated cost model, a procedural
//     Talairach-like atlas, and synthetic PET/MRI study generation.
//   - Experiment drivers regenerating every table and figure of the
//     paper's evaluation (run ratios, EQ 1, Figure 4, Tables 3 and 4).
//
// Quick start:
//
//	sys, err := qbism.NewSystem(qbism.Config{Bits: 6, NumPET: 2, NumMRI: 1, SmallStudies: true})
//	if err != nil { ... }
//	res, err := sys.RunQuery(qbism.QuerySpec{
//	    StudyID: 1, Atlas: "Talairach", Structure: "ntal1",
//	    HasBand: true, BandLo: 224, BandHi: 255,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package qbism

import (
	"qbism/internal/atlas"
	"qbism/internal/cluster"
	"qbism/internal/daemon"
	"qbism/internal/dx"
	"qbism/internal/faultsim"
	"qbism/internal/feature"
	"qbism/internal/lfm"
	"qbism/internal/mining"
	"qbism/internal/netsim"
	"qbism/internal/obs"
	core "qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/spindex"
	"qbism/internal/stats"
	"qbism/internal/synth"
	"qbism/internal/transport"
	"qbism/internal/volume"
	"qbism/internal/warp"
)

// Space-filling curves.
type (
	// Curve linearizes a 2D/3D grid (see CurveHilbert, CurveZOrder,
	// CurveScanline).
	Curve = sfc.Curve
	// CurveKind selects a curve family.
	CurveKind = sfc.Kind
	// Point is a grid point.
	Point = sfc.Point
)

// Curve kinds.
const (
	CurveHilbert  = sfc.Hilbert
	CurveZOrder   = sfc.ZOrder
	CurveScanline = sfc.Scanline
)

// NewCurve constructs a curve of the given kind over a dim-dimensional
// grid with bits bits per coordinate.
func NewCurve(kind CurveKind, dim, bits int) (Curve, error) { return sfc.New(kind, dim, bits) }

// Pt constructs a Point.
func Pt(x, y, z uint32) Point { return sfc.Pt(x, y, z) }

// REGIONs and spatial operators.
type (
	// Region is the paper's REGION type: a voxel set as curve runs.
	Region = region.Region
	// Run is one maximal interval of curve positions.
	Run = region.Run
	// Octant is an aligned power-of-two block (<id, rank>).
	Octant = region.Octant
	// Box is an axis-aligned rectangular solid.
	Box = region.Box
	// Ellipsoid is an axis-aligned ellipsoid.
	Ellipsoid = region.Ellipsoid
	// Delta is a run or gap length along the curve.
	Delta = region.Delta
)

// Region constructors and operators.
var (
	EmptyRegion   = region.Empty
	FullRegion    = region.Full
	FromRuns      = region.FromRuns
	FromIDs       = region.FromIDs
	FromPoints    = region.FromPoints
	FromPredicate = region.FromPredicate
	FromBox       = region.FromBox
	FromSphere    = region.FromSphere
	FromEllipsoid = region.FromEllipsoid
	Intersect     = region.Intersect
	IntersectN    = region.IntersectN
	Union         = region.Union
	Difference    = region.Difference
	Complement    = region.Complement
	Contains      = region.Contains
	Overlaps      = region.Overlaps
)

// REGION encodings.
type (
	// EncodingMethod selects an on-disk REGION encoding.
	EncodingMethod = rencode.Method
)

// Encoding methods (Section 4.2).
const (
	EncodingNaive        = rencode.Naive
	EncodingElias        = rencode.Elias
	EncodingEliasDelta   = rencode.EliasDelta
	EncodingGolomb       = rencode.Golomb
	EncodingVarint       = rencode.Varint
	EncodingOblongOctant = rencode.OblongOctant
	EncodingOctant       = rencode.Octant
	EncodingK3Tree       = rencode.K3Tree
)

// Queryable compression: a k³-tree REGION answers point probes,
// interval tests, and run-list intersection directly on the encoded
// bytes (see DESIGN.md §13).
type K3TreeProbe = rencode.K3Probe

var (
	ParseK3Tree      = rencode.ParseK3
	EncodingByName   = rencode.MethodByName
	EncodingOfRegion = rencode.MethodOf
)

// Config.Rencode modes beyond a forced encoding method name.
const (
	RencodeAuto = core.RencodeAuto
	RencodeRuns = core.RencodeRuns
)

// Encoding functions.
var (
	EncodeRegion        = rencode.Encode
	DecodeRegion        = rencode.Decode
	EncodedRegionSize   = rencode.EncodedSize
	EntropyBound        = rencode.EntropyBound
	EntropyBitsPerDelta = rencode.EntropyBitsPerDelta
	DeltaHistogram      = rencode.DeltaHistogram
)

// VOLUMEs.
type (
	// Volume is the paper's VOLUME type: a full scalar field in curve order.
	Volume = volume.Volume
	// DataRegion pairs a REGION with its voxel values (EXTRACT_DATA result).
	DataRegion = volume.DataRegion
	// BandSpec is one intensity band with its REGION.
	BandSpec = volume.BandSpec
)

// Volume constructors and operators.
var (
	NewVolume          = volume.New
	VolumeFromScanline = volume.FromScanline
	VolumeFromFunc     = volume.FromFunc
	ExtractData        = volume.Extract
	VoxelwiseMean      = volume.VoxelwiseMean
)

// Vector fields (the paper's n-d m-vector generalization) and the
// gradient manipulation DX offers on results.
type (
	// VectorVolume is an M-component field in curve order.
	VectorVolume = volume.VectorVolume
	// VectorDataRegion is a REGION with per-voxel vectors.
	VectorDataRegion = volume.VectorDataRegion
)

// Vector-field helpers.
var (
	NewVectorVolume = volume.NewVector
	VectorFromFunc  = volume.VectorFromFunc
	ExtractVector   = volume.ExtractVector
	Gradient        = volume.Gradient
)

// Warping and registration.
type (
	// Affine is a 3D affine transformation.
	Affine = warp.Affine
	// Landmark is a patient-space/atlas-space correspondence.
	Landmark = warp.Landmark
	// AcquisitionGrid describes a raw study's sampling grid.
	AcquisitionGrid = warp.Grid
)

// Warp helpers.
var (
	IdentityAffine = warp.Identity
	Translate      = warp.Translate
	Scale          = warp.Scale
	RotateZ        = warp.RotateZ
	FitLandmarks   = warp.FitLandmarks
	Resample       = warp.Resample
)

// The assembled system.
type (
	// System is a fully loaded QBISM instance.
	System = core.System
	// Client is the DX half of a query (RunQuery, RunQueries, the DX
	// cache, cost model and observability sinks); System and
	// ClusterSystem both embed one.
	Client = core.Client
	// Config parameterizes NewSystem.
	Config = core.Config
	// QuerySpec is a high-level query (what the DX entry fields collect).
	QuerySpec = core.QuerySpec
	// QueryResult is a completed end-to-end query.
	QueryResult = core.QueryResult
	// QueryTiming is one Table 3 row.
	QueryTiming = core.QueryTiming
	// Table4Row is one Table 4 row.
	Table4Row = core.Table4Row
	// RunRatioReport is experiment E1.
	RunRatioReport = core.RunRatioReport
	// SizeReport is experiment E3 (Figure 4).
	SizeReport = core.SizeReport
	// DeltaLawRow is one region's EQ 1 fit.
	DeltaLawRow = core.DeltaLawRow
	// MingapRow is one row of the approximation ablation.
	MingapRow = core.MingapRow
	// StudyInfo summarizes a loaded study.
	StudyInfo = core.StudyInfo
)

// NewSystem builds and loads a complete system.
func NewSystem(cfg Config) (*System, error) { return core.New(cfg) }

// Sharded deployment: the corpus partitioned across K shards of
// replicated nodes with circuit breaking, read failover, hedged reads,
// and graceful partial results (ClusterConfig.Shards / -shards on the
// CLI).
type (
	// ClusterSystem is a sharded, replicated QBISM deployment.
	ClusterSystem = core.ClusterSystem
	// ClusterConfig parameterizes NewClusterSystem.
	ClusterConfig = core.ClusterConfig
	// ClusterKey is a (patient, study) routing key.
	ClusterKey = cluster.Key
	// ClusterPartitioner maps routing keys onto shards.
	ClusterPartitioner = cluster.Partitioner
	// ClusterReadInfo reports how one cluster read was served.
	ClusterReadInfo = cluster.ReadInfo
	// ClusterBreakerConfig configures per-node circuit breakers.
	ClusterBreakerConfig = cluster.BreakerConfig
	// PartialResult names the shards lost during a scatter-gather.
	PartialResult = cluster.PartialResult
	// ShardFailure is one lost shard with its cause and keys.
	ShardFailure = cluster.ShardFailure
)

// ErrShardUnavailable marks a read that exhausted every node and
// attempt on its shard (match with errors.Is).
var ErrShardUnavailable = cluster.ErrShardUnavailable

// NewClusterSystem builds a sharded deployment: one full node system
// per (shard, replica), each loading only its shard of the corpus.
func NewClusterSystem(cfg ClusterConfig) (*ClusterSystem, error) { return core.NewClusterSystem(cfg) }

// NewClusterPartitioner builds the routing function alone (for
// inspecting shard placement without loading any data).
func NewClusterPartitioner(shards int) ClusterPartitioner { return cluster.NewPartitioner(shards) }

// The transport seam: one interface over the simulated link and real
// TCP to a qbismd daemon. A System is built on the simulated link; a
// program talking to a live daemon dials it with DialTCP and drives it
// with EncodeQueryRequest/DecodeQueryResponse.
type (
	// Transport carries framed RPCs to a MedicalServer.
	Transport = transport.Transport
	// TransportStats is a Transport's cumulative meter; call sites
	// price work from Sub deltas.
	TransportStats = transport.Stats
	// TCPOptions parameterizes DialTCP.
	TCPOptions = transport.TCPOptions
	// DaemonConfig parameterizes NewDaemon.
	DaemonConfig = daemon.Config
	// Daemon is a serving qbismd: RPC server + admin HTTP endpoint.
	Daemon = daemon.Daemon
)

// DialTCP returns a Transport speaking the frame protocol to a daemon
// at addr; the connection is established lazily and redialed after
// failures.
func DialTCP(addr string, opts TCPOptions) Transport { return transport.DialTCP(addr, opts) }

// NewDaemon wires a loaded System into a serving daemon (what
// cmd/qbismd runs).
func NewDaemon(sys *System, cfg DaemonConfig) *Daemon { return daemon.New(sys, cfg) }

// QueryMethod is the wire method name for medical queries;
// EncodeQueryRequest/DecodeQueryResponse build and split its payloads
// for clients driving a daemon through a bare Transport.
const QueryMethod = core.QueryMethod

// EncodeQueryRequest builds the wire request body for QueryMethod.
func EncodeQueryRequest(spec QuerySpec) ([]byte, error) { return core.EncodeQueryRequest(spec) }

// Fault injection and resilience (chaos testing the simulated
// deployment: Config.LinkFaults, Config.DeviceFaults, Config.Checksums,
// Config.Retry).
type (
	// FaultPolicy is a deterministic, seeded fault schedule.
	FaultPolicy = faultsim.Policy
	// FaultKind is one failure mode (DropFault, TornWriteFault, ...).
	FaultKind = faultsim.Kind
	// ScheduledFault pins a fault to an exact operation index.
	ScheduledFault = faultsim.Scheduled
	// FaultInjector draws faults from a FaultPolicy.
	FaultInjector = faultsim.Injector
	// RetryPolicy governs client-side query retries.
	RetryPolicy = core.RetryPolicy
	// RetryStats reports one query's attempts, retries, and backoff.
	RetryStats = core.RetryStats
	// LinkStats counts RPC traffic and injected link faults.
	LinkStats = netsim.Stats
	// MethodFaults counts per-RPC-method injected faults.
	MethodFaults = netsim.MethodFaults
)

// Fault kinds.
const (
	DropFault        = faultsim.Drop
	TimeoutFault     = faultsim.Timeout
	LatencyFault     = faultsim.Latency
	CorruptFault     = faultsim.Corrupt
	TamperFault      = faultsim.Tamper
	ReadErrFault     = faultsim.ReadErr
	PageCorruptFault = faultsim.PageCorrupt
	WriteErrFault    = faultsim.WriteErr
	TornWriteFault   = faultsim.TornWrite
)

// Typed fault and integrity errors, matchable with errors.Is through
// the full SQL → UDF → LFM chain.
var (
	ErrDropped        = netsim.ErrDropped
	ErrLinkTimeout    = netsim.ErrLinkTimeout
	ErrLinkCorrupt    = netsim.ErrCorrupt
	ErrReadFault      = lfm.ErrReadFault
	ErrWriteFault     = lfm.ErrWriteFault
	ErrChecksum       = lfm.ErrChecksum
	ErrFrameTruncated = transport.ErrFrameTruncated
	ErrFrameCorrupt   = transport.ErrFrameCorrupt
)

// Resilience helpers.
var (
	// NewFaultInjector builds an injector for a policy.
	NewFaultInjector = faultsim.New
	// DefaultRetryPolicy is a sane client retry configuration.
	DefaultRetryPolicy = core.DefaultRetryPolicy
	// RetryableError classifies an error as transient (retryable) or
	// semantic (terminal).
	RetryableError = core.RetryableError
)

// Observability (Config.Trace, Config.SlowLogThreshold): per-query
// span trees through the whole stack, a process-wide metrics registry
// with Prometheus-style exposition, and the slow-query forensics ring.
type (
	// Tracer mints query span trees (sys.Tracer when Config.Trace).
	Tracer = obs.Tracer
	// Span is one node of a query's span tree.
	Span = obs.Span
	// SpanAttr is one span attribute (counter or string annotation).
	SpanAttr = obs.Attr
	// MetricsRegistry aggregates counters and bounded histograms
	// (sys.Metrics; text exposition via WriteProm).
	MetricsRegistry = obs.Registry
	// MetricCounter is a monotone process-wide counter.
	MetricCounter = obs.Counter
	// MetricHistogram is a bounded-bucket histogram.
	MetricHistogram = obs.Histogram
	// SlowQueryLog is the bounded ring of captured slow queries
	// (sys.SlowLog when Config.SlowLogThreshold > 0).
	SlowQueryLog = obs.SlowLog
	// SlowQueryEntry is one captured slow query: label, latency, the
	// full span tree, and the EXPLAIN ANALYZE view of its plan.
	SlowQueryEntry = obs.SlowEntry
)

// Observability constructors (for standalone use outside a System).
var (
	NewTracer          = obs.NewTracer
	NewMetricsRegistry = obs.NewRegistry
	NewSlowQueryLog    = obs.NewSlowLog
)

// Band encoding labels for Config.ExtraBandEncodings / Table 4.
const (
	BandEncodingHilbertNaive = core.EncHilbertNaive
	BandEncodingZNaive       = core.EncZNaive
	BandEncodingOctant       = core.EncOctant
	BandEncodingK3Tree       = core.EncK3Tree
)

// Report formatters.
var (
	WriteTable3    = core.WriteTable3
	WriteTable4    = core.WriteTable4
	WriteRunRatios = core.WriteRunRatios
	WriteDeltaLaw  = core.WriteDeltaLaw
	WriteSizes     = core.WriteSizes
	WriteMingap    = core.WriteMingap
)

// DataRegion wire format (DATA_REGION of the paper's footnote 6).
var (
	MarshalDataRegion   = core.MarshalDataRegion
	UnmarshalDataRegion = core.UnmarshalDataRegion
)

// Read-path tuning and the parallel executor (Config.CachePages,
// Config.ReadGapPages, Config.Workers).
type (
	// ExtractOpts tunes run-pruned extraction's physical read plan.
	ExtractOpts = core.ExtractOpts
	// BatchItem is one completed entry of a System.RunQueries batch.
	BatchItem = core.BatchItem
)

// Run-pruned extraction against a stored VOLUME long field, and batch
// pricing under the simulated clock.
var (
	ExtractStored     = core.ExtractStored
	ExtractStoredOpts = core.ExtractStoredOpts
	BatchSim          = core.BatchSim
)

// Visualization (Data Explorer stand-in).
type (
	// Field is an imported renderable scalar field.
	Field = dx.Field
	// Image is an 8-bit grayscale raster with a PGM writer.
	Image = dx.Image
	// RenderOpts configures Field.Render.
	RenderOpts = dx.RenderOpts
	// ResultCache is the DX query-result cache.
	ResultCache = dx.Cache
)

// Render modes.
const (
	RenderMIP     = dx.MIP
	RenderAverage = dx.Average
)

// Visualization helpers.
var (
	ImportVolume = dx.ImportVolume
	RenderMesh   = dx.RenderMesh
	NewCache     = dx.NewCache
)

// Atlas and synthetic studies.
type (
	// Atlas is the reference brain atlas.
	Atlas = atlas.Atlas
	// Structure is one anatomical structure (REGION + mesh).
	Structure = atlas.Structure
	// Mesh is a triangular surface mesh.
	Mesh = atlas.Mesh
	// StudyParams parameterizes synthetic study generation.
	StudyParams = synth.Params
	// RawStudy is one synthesized patient-space study.
	RawStudy = synth.RawStudy
	// Modality is PET or MRI.
	Modality = synth.Modality
)

// Modalities.
const (
	PET = synth.PET
	MRI = synth.MRI
)

// Atlas and study builders.
var (
	BuildAtlas     = atlas.Build
	MeshFromRegion = atlas.MeshFromRegion
	GenerateStudy  = synth.Generate
)

// Population-scale capabilities (the paper's Section 7 future
// directions, implemented): spatial indexing over activity regions,
// study similarity search, and association-rule mining.
type (
	// ActivityIndex is an R-tree over band-REGION bounding boxes.
	ActivityIndex = core.ActivityIndex
	// ActivityEntry is one indexed band region.
	ActivityEntry = core.ActivityEntry
	// FeatureVector is a study-inside-structure feature vector.
	FeatureVector = feature.Vector
	// SimilarityMatch is one k-NN similarity result.
	SimilarityMatch = feature.Match
	// MiningTransaction is one study's boolean feature set.
	MiningTransaction = mining.Transaction
	// AssociationRule is a mined X => Y rule.
	AssociationRule = mining.Rule
	// FrequentItemSet is a frequent feature set with support.
	FrequentItemSet = mining.FrequentSet
	// RTree indexes 3D boxes for population queries.
	RTree = spindex.RTree
	// RTreeEntry is one indexed box.
	RTreeEntry = spindex.Entry
	// RTreeBox is an axis-aligned integer box.
	RTreeBox = spindex.Box3
)

// Population helpers.
var (
	NewRTree         = spindex.New
	ExtractFeatures  = feature.Extract
	FeatureDistance  = feature.Distance
	BuildVPTree      = feature.Build
	FrequentItemSets = mining.FrequentItemSets
	MineRules        = mining.Rules
)

// Database substrate (for advanced use: ad-hoc SQL against a System's
// catalog via sys.DB, long fields via sys.LFM).
type (
	// DB is the extensible relational engine.
	DB = sdb.DB
	// SQLValue is a dynamically typed SQL value.
	SQLValue = sdb.Value
	// SQLResult is a materialized statement result.
	SQLResult = sdb.Result
	// SQLRows is a streaming row iterator from DB.Query.
	SQLRows = sdb.Rows
	// UDF is a user-defined SQL function.
	UDF = sdb.UDF
	// LongFieldManager stores large objects on a page-accounted device.
	LongFieldManager = lfm.Manager
	// LFMStats counts long-field I/O traffic.
	LFMStats = lfm.Stats
)

// SQL value constructors, for bind parameters (DB.Exec / DB.Query take
// trailing SQLValue arguments matching `?` placeholders) and ad-hoc
// row construction.
var (
	SQLInt   = sdb.Int
	SQLFloat = sdb.Float
	SQLStr   = sdb.Str
	SQLBool  = sdb.Bool
	SQLBytes = sdb.Bytes
	SQLLong  = sdb.Long
	SQLNull  = sdb.Null
)

// NewDB creates an empty database over a long field manager.
func NewDB(m *LongFieldManager) *DB { return sdb.NewDB(m) }

// NewLongFieldManager creates a simulated long-field device.
func NewLongFieldManager(capacity uint64, pageSize int) (*LongFieldManager, error) {
	return lfm.New(capacity, pageSize)
}

// FileDevice is a file-backed long-field device.
type FileDevice = lfm.FileDevice

// File-backed device helpers: persistent databases with identical page
// accounting.
var (
	OpenFileDevice       = lfm.OpenFileDevice
	NewFileBackedManager = lfm.NewFileBacked
)

// Analysis helpers.
type (
	// LinearFit is a least-squares line with correlation.
	LinearFit = stats.LinearFit
	// PowerLaw is an EQ 1 fit.
	PowerLaw = stats.PowerLaw
)

// Fitting functions.
var (
	FitLinear              = stats.Linear
	FitLinearThroughOrigin = stats.LinearThroughOrigin
	FitPowerLaw            = stats.FitPowerLaw
	FitPowerLawBinned      = stats.FitPowerLawBinned
)
