// Package qbism puts the DX front end of the paper in front of its
// MedicalServer (internal/medserver): the Client that frames a query
// spec, carries it over a transport, imports and renders the reply; the
// System that holds both halves in one process, joined by a simulated
// link; the sharded ClusterSystem; and Table 3, the client's own
// per-query bill. The rest of the evaluation — Table 4, E1–E3, mingap
// and the Section 7 tools — reads the server alone and lives in
// internal/experiments, which nothing here imports.
package qbism

import (
	"errors"

	"qbism/internal/costmodel"
	"qbism/internal/lfm"
	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// What a client shares with the server it talks to is declared by the
// server (internal/medserver); these are the names this package's own
// code and the repo benchmark use for it.
type (
	// Config parameterizes the server; a client in its process shares
	// Trace, and takes its own settings as Options.
	Config = medserver.Config
	// QuerySpec is the high-level query a user composes in the DX entry
	// fields.
	QuerySpec = medserver.QuerySpec
	// QueryMeta is the server-side response header.
	QueryMeta = medserver.QueryMeta
	// StudyInfo summarizes one loaded study.
	StudyInfo = medserver.StudyInfo
	// ExtractOpts tunes the physical read plan of ExtractStoredOpts.
	ExtractOpts = medserver.ExtractOpts
)

// EncHilbertNaive labels the h-naive band rows (the intensityBand
// encoding column): a synonym of the k³-tree rows, over the same fields.
const EncHilbertNaive = medserver.EncHilbertNaive

// QueryMethod is the wire method name of a medical query.
const QueryMethod = medserver.QueryMethod

// EncodeQueryRequest builds the wire request body for QueryMethod.
func EncodeQueryRequest(spec QuerySpec) ([]byte, error) { return medserver.EncodeQueryRequest(spec) }

// DecodeQueryResponse splits a QueryMethod response into its meta header
// and DataRegion blob.
func DecodeQueryResponse(resp []byte) (*QueryMeta, []byte, error) {
	return medserver.DecodeQueryResponse(resp)
}

// MarshalDataRegion serializes a DataRegion (the DATA_REGION blob).
func MarshalDataRegion(d *volume.DataRegion, method rencode.Method) ([]byte, error) {
	return medserver.MarshalDataRegion(d, method)
}

// UnmarshalDataRegion reverses MarshalDataRegion.
func UnmarshalDataRegion(data []byte) (*volume.DataRegion, error) {
	return medserver.UnmarshalDataRegion(data)
}

// ExtractStoredOpts performs EXTRACT_DATA against a stored VOLUME.
func ExtractStoredOpts(m *lfm.Manager, h lfm.Handle, r *region.Region, opts ExtractOpts) (*volume.DataRegion, error) {
	return medserver.ExtractStoredOpts(m, h, r, opts)
}

// Node is one MedicalServer behind its simulated link and no client: a
// System's server half, and each replica of a ClusterSystem's shards.
type Node struct {
	// Server is the MedicalServer: Cfg, Curve, LFM, DB, Atlas, Studies,
	// BandRegions, ServeRPC, ExplainSpec, ConsistentBandRegion.
	*medserver.Server
	// Transport is the simulated link to Server: the meter of its bills
	// (Stats), SetFaults for link faults, and a raw Call that bypasses
	// any client.
	Transport *transport.Sim
}

// newNode loads a server and puts a simulated link in front of it.
func newNode(cfg Config) (*Node, error) {
	srv, err := medserver.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Node{Server: srv, Transport: transport.NewSim(costmodel.Default1993(), srv.ServeRPC)}, nil
}

// Close releases the transport and the server's long-field manager.
func (n *Node) Close() error { return errors.Join(n.Transport.Close(), n.Server.Close()) }

// System is a MedicalServer and the DX client that queries it in one
// process, joined by a simulated link.
type System struct {
	// Node is the MedicalServer half, its link and Close.
	*Node
	// Client is the DX half: RunQuery, RunQueries, its cluster of one,
	// Cache, SlowLog, and the server's Metrics and Tracer.
	*Client
}

// New loads a server and puts a client in front of it over a simulated
// link; faults go on sys.Transport once it returns.
func New(cfg Config, opts ...Option) (*System, error) {
	o := collectOptions(opts)
	if o.slowLog > 0 {
		cfg.Trace = true // the client shares the server's tracer
	}
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	// One process, one registry and one tracer: the server's, the
	// client's and its node's series sit side by side.
	metrics, tracer := n.Observers()
	c := newNodeClient(n.Transport, n.Cfg, o, metrics)
	c.Tracer = tracer
	return &System{Node: n, Client: c}, nil
}
