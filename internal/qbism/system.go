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
	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/lfm"
	"qbism/internal/medserver"
	"qbism/internal/netsim"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// What a client shares with the server it talks to is declared by the
// server (internal/medserver); these are the names this package's own
// code and the repo benchmark use for it.
type (
	// Config parameterizes a System: the server's corpus and storage, the
	// link's faults, the client's retries, workers and tracing.
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

// Band-encoding labels of Table 4's comparison (the intensityBand
// encoding column).
const (
	EncHilbertNaive = medserver.EncHilbertNaive
	EncZNaive       = medserver.EncZNaive
	EncOctant       = medserver.EncOctant
)

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

// System is a MedicalServer and the DX client that queries it in one
// process, joined by a simulated link.
type System struct {
	// Server is the MedicalServer half: Cfg, Curve, LFM, DB, Atlas,
	// Studies, BandRegions, ServeRPC, ExplainSpec, ConsistentBandRegion.
	*medserver.Server
	// Client is the DX half: RunQuery, RunQueries, its cluster of one,
	// Model, Cache, SlowLog, and the Metrics registry and Tracer it
	// shares with the server.
	*Client

	// Transport is the simulated transport the client's one node is
	// reached over, crossing Link to Server: the cumulative meter of its
	// bills (Stats), and a raw Call that bypasses the client.
	Transport *transport.Sim
	// Link is the simulated link Transport crosses: its crossing and
	// fault counters, and where LinkFaults — the active injector, nil
	// unless Config.LinkFaults — is installed.
	Link       *netsim.Link
	LinkFaults *faultsim.Injector
}

// New loads a server (medserver.New) and puts a client in front of it
// over a simulated link carrying the configured faults.
func New(cfg Config) (*System, error) {
	srv, err := medserver.New(cfg)
	if err != nil {
		return nil, err
	}
	model := costmodel.Default1993()
	s := &System{Server: srv, Link: netsim.NewLink(model)}
	if cfg.LinkFaults != nil {
		s.LinkFaults = faultsim.New(*cfg.LinkFaults)
		s.Link.SetFaults(s.LinkFaults)
	}
	s.Transport = transport.NewSim(s.Link, model, srv.ServeRPC)
	// One process, one registry and one tracer: the server's, the
	// client's and its node's series sit side by side.
	metrics, tracer := srv.Observers()
	s.Client = newNodeClient(s.Transport, srv.Cfg, metrics)
	s.Tracer = tracer
	return s, nil
}

// Close releases the transport and the server's long-field manager. A
// file-backed LFM holds an open device file — callers should Close when
// done.
func (s *System) Close() error {
	first := s.Transport.Close()
	if err := s.Server.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
