// Package qbism is a from-scratch Go reproduction of "QBISM: Extending a
// DBMS to Support 3D Medical Images" (Arya, Cody, Faloutsos, Richardson,
// Toga — ICDE 1994): a prototype for querying and visualizing 3D medical
// images built on an extensible relational DBMS.
//
// The package re-exports what the examples, the commands and the API
// test reach the internal implementation through — nothing is exported
// that none of them names; a value of an internal type (a sys.Curve, a
// res.Field, a span) is usable without an alias for its type:
//
//   - Space-filling curves: the Hilbert and Z-order kinds, NewCurve, Pt.
//   - The REGION data type — an arbitrary voxel set stored as runs along
//     a curve — with its geometric constructors and the paper's spatial
//     operators (INTERSECTION, CONTAINS, UNION, DIFFERENCE).
//   - REGION storage encodings (naive runs, Elias γ/δ, Golomb, varint,
//     oblong octants, octants, the k³-tree), octant decompositions and
//     the entropy lower bound, from the codec zoo.
//   - The VOLUME data type — a complete scalar field stored in curve
//     order — with EXTRACT_DATA.
//   - Affine warping and landmark registration (patient → atlas space).
//   - The assembled system: NewSystem (a MedicalServer and the DX Client
//     that queries it — a Data Explorer stand-in: import, render, cache —
//     joined by a simulated RPC link with a 1993-calibrated cost model),
//     NewClusterSystem (the same client over a sharded deployment),
//     NewClient over DialTCP (the same client, its server a running
//     qbismd), fault policies and retries, the SQL substrate, a
//     procedural Talairach-like atlas, and synthetic PET/MRI study
//     generation.
//   - Table 3's formatter, and the fitting functions under the paper's
//     analyses. The analyses themselves — Table 4, the run ratios, EQ 1,
//     Figure 4, mingap and the Section 7 population tools — read a loaded
//     server and live in internal/experiments (cmd/benchtables and the
//     examples import it); a program that only wants a Client links
//     none of them.
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
	"qbism/internal/dx"
	"qbism/internal/faultsim"
	"qbism/internal/lfm"
	core "qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/rencode/zoo"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/stats"
	"qbism/internal/synth"
	"qbism/internal/transport"
	"qbism/internal/volume"
	"qbism/internal/warp"
)

// Point is a grid point.
type Point = sfc.Point

// Curve kinds.
const (
	CurveHilbert = sfc.Hilbert
	CurveZOrder  = sfc.ZOrder
)

// NewCurve constructs a curve of the given kind over a dim-dimensional
// grid with bits bits per coordinate.
func NewCurve(kind sfc.Kind, dim, bits int) (sfc.Curve, error) { return sfc.New(kind, dim, bits) }

// Pt constructs a Point.
func Pt(x, y, z uint32) Point { return sfc.Pt(x, y, z) }

// REGIONs and spatial operators.
type (
	// Region is the paper's REGION type: a voxel set as curve runs.
	Region = region.Region
	// Box is an axis-aligned rectangular solid.
	Box = region.Box
	// Ellipsoid is an axis-aligned ellipsoid.
	Ellipsoid = region.Ellipsoid
)

// Region constructors and operators.
var (
	FromBox       = region.FromBox
	FromSphere    = region.FromSphere
	FromEllipsoid = region.FromEllipsoid
	Intersect     = region.Intersect
	Union         = region.Union
	Difference    = region.Difference
	Complement    = region.Complement
	Contains      = region.Contains
	Overlaps      = region.Overlaps
)

// EncodingMethod selects a REGION encoding.
type EncodingMethod = zoo.Method

// Encoding methods (Section 4.2).
const (
	EncodingNaive        = zoo.Naive
	EncodingElias        = zoo.Elias
	EncodingEliasDelta   = zoo.EliasDelta
	EncodingGolomb       = zoo.Golomb
	EncodingVarint       = zoo.Varint
	EncodingOblongOctant = zoo.OblongOctant
	EncodingOctant       = zoo.Octant
)

// Encoding functions.
var (
	EncodeRegion        = zoo.Encode
	DecodeRegion        = zoo.Decode
	EncodedRegionSize   = zoo.EncodedSize
	EntropyBound        = zoo.EntropyBound
	EntropyBitsPerDelta = zoo.EntropyBitsPerDelta
	DeltaHistogram      = zoo.DeltaHistogram
	OblongOctants       = zoo.OblongOctants
	Octants             = zoo.Octants
)

// Volume is the paper's VOLUME type: a full scalar field in curve order.
type Volume = volume.Volume

// Volume constructors and operators.
var (
	NewVolume          = volume.New
	VolumeFromScanline = volume.FromScanline
	VolumeFromFunc     = volume.FromFunc
	ExtractData        = volume.Extract
	VoxelwiseMean      = volume.VoxelwiseMean
)

// Warping and registration.
type (
	// Landmark is a patient-space/atlas-space correspondence.
	Landmark = warp.Landmark
	// AcquisitionGrid describes a raw study's sampling grid.
	AcquisitionGrid = warp.Grid
)

// Warp helpers.
var (
	Translate    = warp.Translate
	Scale        = warp.Scale
	FitLandmarks = warp.FitLandmarks
)

// The assembled system.
type (
	// System is a MedicalServer and the DX Client that queries it.
	System = core.System
	// Client is the DX half of a query (RunQuery, RunQueries, the DX
	// cache and observability sinks); System and ClusterSystem both
	// embed one.
	Client = core.Client
	// Config parameterizes the MedicalServer of NewSystem and each node's.
	Config = core.Config
	// Option sets what only the DX client reads: WithRetry, WithSlowLog.
	Option = core.Option
	// QuerySpec is a high-level query (what the DX entry fields collect).
	QuerySpec = core.QuerySpec
	// QueryResult is a completed end-to-end query. Its Field keeps the
	// reply's REGION encoded, as it crossed the wire, and the render
	// walks it there; res.Data() decodes a DataRegion on demand, a new
	// Region each call, so a query that is only rendered builds none.
	QueryResult = core.QueryResult
	// QueryTiming is what RunQuery measured and counted for one query.
	QueryTiming = core.QueryTiming
	// Table3Row is one row of Table 3; SimTime is its price (PriceQuery).
	Table3Row = core.Table3Row
	SimTime   = core.SimTime
	// ClusterConfig parameterizes NewClusterSystem.
	ClusterConfig = core.ClusterConfig
)

// NewSystem builds and loads a complete system; faults go on sys.Transport.
func NewSystem(cfg Config, opts ...Option) (*System, error) { return core.New(cfg, opts...) }

// NewClusterSystem builds a sharded deployment — the corpus partitioned
// across K shards of replicated nodes with circuit breaking, read
// failover, hedged reads, and graceful partial results: one bare node
// per (shard, replica), each loading only its shard of the corpus.
func NewClusterSystem(cfg ClusterConfig, opts ...Option) (*core.ClusterSystem, error) {
	return core.NewClusterSystem(cfg, opts...)
}

// NewClient builds a DX client that reaches its MedicalServer over t
// and loads nothing itself: of cfg it reads Trace.
func NewClient(t transport.Transport, cfg Config, opts ...Option) *Client {
	return core.NewClient(t, cfg, opts...)
}

// WithRetry, WithSlowLog and WithWorkers are the client's Options.
var WithRetry, WithSlowLog, WithWorkers = core.WithRetry, core.WithSlowLog, core.WithWorkers

// DialTCP is the transport to the qbismd listening at addr. The
// connection is made by the first call.
func DialTCP(addr string) *transport.TCP { return transport.DialTCP(addr, transport.TCPOptions{}) }

// ErrShardUnavailable marks a read that exhausted every node and
// attempt on its shard (match with errors.Is).
var ErrShardUnavailable = cluster.ErrShardUnavailable

// FaultPolicy is a deterministic, seeded fault schedule: a device's
// (Config.DeviceFaults) or a link's (NewFaultInjector, NodeFaults).
type FaultPolicy = faultsim.Policy

// Resilience helpers.
var (
	// NewFaultInjector drives a FaultPolicy, for sys.Transport.SetFaults.
	NewFaultInjector = faultsim.New
	// DefaultRetryPolicy is a sane client retry configuration.
	DefaultRetryPolicy = transport.DefaultRetryPolicy
	// RetryableError classifies an error as transient (retryable) or
	// semantic (terminal).
	RetryableError = transport.RetryableError
)

// WriteTable3 prices and formats Table 3 rows; PriceQuery prices one
// query's result with the calibrated 1993 cost model, as Table 3 does.
var WriteTable3, PriceQuery = core.WriteTable3, core.PriceQuery

// Visualization (Data Explorer stand-in).
type (
	// Image is an 8-bit grayscale raster with a PGM writer.
	Image = dx.Image
	// RenderOpts configures Field.Render.
	RenderOpts = dx.RenderOpts
)

// RenderAverage is the mean-intensity projection (the default is MIP).
const RenderAverage = dx.Average

// Visualization helpers.
var (
	ImportVolume = dx.ImportVolume
	RenderMesh   = dx.RenderMesh
)

// StudyParams parameterizes synthetic study generation.
type StudyParams = synth.Params

// PET is the positron-emission modality of a synthetic study.
const PET = synth.PET

// Atlas and study builders.
var (
	BuildAtlas     = atlas.Build
	MeshFromRegion = atlas.MeshFromRegion
	GenerateStudy  = synth.Generate
)

// Database substrate (for advanced use: ad-hoc SQL against a System's
// catalog via sys.DB, long fields via sys.LFM).
type (
	// DB is the extensible relational engine.
	DB = sdb.DB
	// SQLValue is a dynamically typed SQL value.
	SQLValue = sdb.Value
	// UDF is a user-defined SQL function.
	UDF = sdb.UDF
	// UDFCall is what a UDF sees of the statement evaluating it: the
	// long-field account (IO) its reads are billed to.
	UDFCall = sdb.Call
)

// NewDB creates an empty database over a long field manager.
func NewDB(m *lfm.Manager) *DB { return sdb.NewDB(m) }

// NewLongFieldManager creates a simulated long-field device.
func NewLongFieldManager(capacity uint64, pageSize int) (*lfm.Manager, error) {
	return lfm.New(capacity, pageSize)
}

// Fitting functions.
var (
	FitLinear              = stats.Linear
	FitLinearThroughOrigin = stats.LinearThroughOrigin
	FitPowerLaw            = stats.FitPowerLaw
	FitPowerLawBinned      = stats.FitPowerLawBinned
)
