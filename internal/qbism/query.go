package qbism

import (
	"fmt"
	"strings"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/dx"
	"qbism/internal/obs"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// QueryTiming is one row of Table 3: result size, I/O, and the
// per-component time breakdown. Measured* fields are this machine's
// actual wall times; Sim* fields price the counted work with the
// calibrated 1993 cost model so rows are comparable with the paper's.
type QueryTiming struct {
	Label  string
	HRuns  int
	Voxels uint64

	LFMPages uint64 // LFM disk I/Os (4 KB pages)

	DBMeasured     time.Duration // server-side handler time on this machine
	DBSimReal      time.Duration // simulated Starburst/MedicalServer real time
	NetMessages    uint64
	NetSim         time.Duration
	ImportMeasured time.Duration
	ImportSim      time.Duration
	RenderMeasured time.Duration
	RenderSim      time.Duration
	RetrySim       time.Duration // simulated backoff waits across retries
	OtherSim       time.Duration
	TotalSim       time.Duration
	TotalMeasured  time.Duration
}

// QueryResult is a completed end-to-end query.
type QueryResult struct {
	Spec   QuerySpec
	Meta   QueryMeta
	Data   *volume.DataRegion
	Field  *dx.Field
	Image  *dx.Image
	Timing QueryTiming
	// Retry reports the query's resilience history: attempts, retries,
	// and total simulated backoff.
	Retry RetryStats
	// Shard, set only for queries served through a ClusterSystem,
	// reports which shard and node answered and what failover work the
	// cluster did on the way.
	Shard *cluster.ReadInfo
	// Trace is the query's span tree (nil unless Config.Trace): the RPC
	// round trips, server-side SQL phases and operators, per-handle LFM
	// I/O, and the DX import/render stages.
	Trace *obs.Span
}

// fetch is the single node's side of the client seam: one logical RPC
// over s.Transport with s.Retry's capped-exponential, deterministically
// jittered schedule, whatever flavor the transport is (both are read
// per call, so a caller may repoint a loaded System). Response
// validation runs inside the loop, so a reply corrupted past the link
// layer's own checks is retried exactly like a failed call.
func (s *System) fetch(root *obs.Span, _ QuerySpec, key string, request []byte) (fetched, error) {
	var f fetched
	tr := s.Transport
	net0 := tr.Stats()
	_, retry, err := transport.CallRetry(tr, root, medicalQueryMethod, request, s.Retry, key,
		func(resp []byte) (verr error) {
			f.meta, f.blob, verr = splitResponse(resp)
			return verr
		})
	f.retry = retry
	if err != nil {
		return f, fmt.Errorf("qbism: query failed after %d attempt(s): %w", retry.Attempts, err)
	}
	net := tr.Stats().Sub(net0)
	f.messages, f.latency = net.Messages, net.Latency
	return f, nil
}

// explainFromSpan reconstructs the EXPLAIN ANALYZE view from a query's
// span tree: the operator spans under each "sql.execute" phase carry
// exactly the counters explainSelect would print, so no re-execution
// (and no extra I/O) is needed for the forensic capture.
func explainFromSpan(root *obs.Span) []string {
	var out []string
	var operators func(sp *obs.Span, depth int)
	operators = func(sp *obs.Span, depth int) {
		in, _ := sp.Int("rowsIn")
		outRows, _ := sp.Int("rowsOut")
		udf, _ := sp.Int("udfCalls")
		pages, _ := sp.Int("lfmPages")
		probe, _ := sp.Int("probeFast")
		out = append(out, fmt.Sprintf("%s%s [in=%d out=%d udf=%d pages=%d probe=%d]",
			strings.Repeat("  ", depth), sp.Name(), in, outRows, udf, pages, probe))
		for _, c := range sp.Children() {
			operators(c, depth+1)
		}
	}
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "sql.execute" {
			return
		}
		for _, c := range sp.Children() {
			operators(c, 0)
		}
	})
	return out
}

// ExplainSpec renders the physical operator tree for the SQL the
// MedicalServer would generate for spec — the visibility hook for
// where the planner placed each spatial predicate relative to the
// extractVoxels() projection. With analyze set the query actually
// executes and each line carries its runtime counters (rows in/out,
// UDF calls, LFM pages charged to that operator's expressions). Band
// queries are prefixed with a "band repr:" line naming the REGION
// representation the query resolves to and whether it is the mode's
// default or the spec forced it.
func (s *System) ExplainSpec(spec QuerySpec, analyze bool) ([]string, error) {
	var lines []string
	if spec.HasBand {
		src := "forced"
		if spec.Encoding == "" {
			spec.Encoding = s.bandEncoding()
			src = "default"
		}
		lines = append(lines, fmt.Sprintf("band repr: %s (%s)", spec.Encoding, src))
	}
	var binds dataBinds
	shape, args, err := dataQuerySQL(spec, &binds)
	if err != nil {
		return nil, err
	}
	prefix := "explain "
	if analyze {
		prefix = "explain analyze "
	}
	res, err := s.DB.Exec(prefix+dataShapeSQL[shape], args...)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		lines = append(lines, row[0].S)
	}
	return lines, nil
}

// splitResponse validates the response frame and separates the meta
// header from the DataRegion blob. Truncated or corrupted frames fail
// with transport.ErrFrameTruncated/ErrFrameCorrupt — typed, retryable —
// so a damaged reply is never mis-parsed as data.
func splitResponse(resp []byte) (*QueryMeta, []byte, error) {
	header, blob, err := transport.DecodeFrame(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: response: %w", err)
	}
	meta, err := decodeMeta(header)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: bad response header: %w", err)
	}
	return meta, blob, nil
}
