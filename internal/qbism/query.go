package qbism

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/costmodel"
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

// frontEnd is the client-side half of a query — the DX cache, the cost
// model pricing the work, and the observability sinks. Both the
// single-node System and the sharded ClusterSystem finish queries
// through the same frontEnd, so timing, metrics, and slow-log behavior
// are identical regardless of how the response was fetched.
type frontEnd struct {
	cache      *dx.Cache
	model      costmodel.Model
	metrics    *obs.Registry
	slowLog    *obs.SlowLog
	slowThresh time.Duration
}

// fe returns the System's frontEnd view.
func (s *System) fe() frontEnd {
	return frontEnd{
		cache:      s.Cache,
		model:      s.Model,
		metrics:    s.Metrics,
		slowLog:    s.SlowLog,
		slowThresh: s.Cfg.SlowLogThreshold,
	}
}

// RunQuery executes a query end to end under the paper's measurement
// protocol: the DX cache is flushed first, then the spec crosses the
// network to the MedicalServer, SQL runs in the database, the result
// crosses back, DX imports it and renders an image. Every component's
// work is counted and timed.
//
// The network exchange is resilient: both directions are CRC-framed so
// corruption and truncation surface as typed errors, and transient
// failures (drops, timeouts, corrupt frames, device read faults) are
// retried per s.Retry with capped exponential backoff and deterministic
// jitter. Backoff is simulated time — no real sleeping — accounted in
// Timing.RetrySim.
func (s *System) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return s.runQuerySpan(nil, spec)
}

// runQuerySpan is RunQuery with an optional parent span (the batch
// root, for RunQueries). With tracing enabled it produces the query's
// span tree, feeds the metrics registry, and captures slow queries.
func (s *System) runQuerySpan(parent *obs.Span, spec QuerySpec) (*QueryResult, error) {
	s.Cache.Flush() // §6.1: "we flushed the DX cache before each run"
	totalStart := time.Now()

	var root *obs.Span
	if parent != nil {
		root = parent.Child("query")
	} else {
		root = s.Tracer.Start("query")
	}
	if root != nil {
		root.SetStr("spec", spec.Label())
	}

	// The marshaled spec is the request body and, as a string, the key
	// QuerySpec.Key returns: the retry jitter and the DX cache use it.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		root.End()
		return nil, err
	}
	key := string(specJSON)
	request := encodeFrame(specJSON, nil)

	// The exchange rides the transport seam: CallRetry carries the
	// capped-exponential, deterministically jittered schedule whatever
	// flavor s.Transport is — the default simulated link, or a TCP
	// connection to a live daemon. Response validation runs inside the
	// loop, so a reply corrupted past the link layer's own checks is
	// retried exactly like a failed call.
	var meta *QueryMeta
	var blob []byte
	net0 := s.Transport.Stats()
	_, retry, err := transport.CallRetry(s.Transport, root, medicalQueryMethod, request, s.Retry, key,
		func(resp []byte) error {
			m, b, verr := splitResponse(resp)
			if verr != nil {
				return verr
			}
			meta, blob = m, b
			return nil
		})
	if err != nil {
		return nil, s.fe().fail(root, retry, fmt.Errorf("qbism: query failed after %d attempt(s): %w", retry.Attempts, err))
	}
	netDelta := s.Transport.Stats().Sub(net0)

	return s.fe().finish(root, spec, key, meta, blob, retry, netDelta.Messages, netDelta.Latency, totalStart)
}

// finish performs the client-side DX stages — import, render, cache —
// prices the work with the cost model, and feeds the observability
// sinks. key is spec.Key(), which the caller already has as its request
// body. netMessages/netSim describe the network exchange however it
// was carried (single link or cluster read).
func (fe frontEnd) finish(root *obs.Span, spec QuerySpec, key string, meta *QueryMeta, blob []byte, retry RetryStats, netMessages uint64, netSim time.Duration, totalStart time.Time) (*QueryResult, error) {
	importStart := time.Now()
	importSp := root.Child("dx.import")
	data, err := UnmarshalDataRegion(blob)
	if err != nil {
		importSp.End()
		return nil, fe.fail(root, retry, err)
	}
	field, importStats, err := dx.ImportVolume(data)
	importSp.SetInt("voxels", int64(importStats.Voxels))
	importSp.SetInt("runs", int64(importStats.Runs))
	importSp.End()
	if err != nil {
		return nil, fe.fail(root, retry, err)
	}
	importDur := time.Since(importStart)

	renderStart := time.Now()
	renderSp := root.Child("dx.render")
	img, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
	renderSp.End()
	if err != nil {
		return nil, fe.fail(root, retry, err)
	}
	renderDur := time.Since(renderStart)
	fe.cache.Put(key, field)

	t := QueryTiming{
		Label:          spec.Label(),
		HRuns:          data.Region.NumRuns(),
		Voxels:         data.Region.NumVoxels(),
		LFMPages:       meta.LFMPages,
		DBMeasured:     time.Duration(meta.DBCPUNanos),
		DBSimReal:      fe.model.StarburstTime(time.Duration(meta.DBCPUNanos), meta.LFMPages),
		NetMessages:    netMessages,
		NetSim:         netSim,
		ImportMeasured: importDur,
		ImportSim:      fe.model.ImportTime(importStats.Voxels, importStats.Runs),
		RenderMeasured: renderDur,
		RenderSim:      fe.model.RenderTime(importStats.Voxels),
		RetrySim:       retry.BackoffSim,
		OtherSim:       fe.model.OtherTime,
	}
	t.TotalSim = t.DBSimReal + t.NetSim + t.ImportSim + t.RenderSim + t.RetrySim + t.OtherSim
	t.TotalMeasured = time.Since(totalStart)

	root.SetInt("attempts", int64(retry.Attempts))
	root.SetInt("retries", int64(retry.Retries))
	root.SetInt("lfm.pages", int64(meta.LFMPages))
	root.SetInt("voxels", int64(t.Voxels))
	if meta.Degraded {
		root.SetStr("degraded", meta.Warning)
	}
	root.End()
	fe.observe(t, retry, root)

	return &QueryResult{
		Spec: spec, Meta: *meta, Data: data, Field: field, Image: img, Timing: t, Retry: retry,
		Trace: root,
	}, nil
}

// fail finishes a query's observability on the error path: the root
// span is annotated and ended, and the error counters bump.
func (fe frontEnd) fail(root *obs.Span, retry RetryStats, err error) error {
	root.SetStr("error", err.Error())
	root.SetInt("attempts", int64(retry.Attempts))
	root.SetInt("retries", int64(retry.Retries))
	root.End()
	fe.metrics.Counter("qbism_queries_total").Inc()
	fe.metrics.Counter("qbism_query_errors_total").Inc()
	fe.metrics.Counter("qbism_retries_total").Add(int64(retry.Retries))
	return err
}

// observe feeds the metrics registry and, when the query's measured
// latency reaches the slow-log threshold, captures the full span tree
// plus the executed plan into the slow-query ring.
func (fe frontEnd) observe(t QueryTiming, retry RetryStats, root *obs.Span) {
	fe.metrics.Counter("qbism_queries_total").Inc()
	fe.metrics.Counter("qbism_retries_total").Add(int64(retry.Retries))
	fe.metrics.Histogram("qbism_query_latency_seconds", obs.LatencyBuckets).
		Observe(t.TotalMeasured.Seconds())
	fe.metrics.Histogram("qbism_query_lfm_pages", obs.PageBuckets).
		Observe(float64(t.LFMPages))
	if fe.slowLog != nil && root != nil && t.TotalMeasured >= fe.slowThresh {
		fe.slowLog.Add(obs.SlowEntry{
			Label:   t.Label,
			Total:   t.TotalMeasured,
			Tree:    root.RenderString(),
			Explain: explainFromSpan(root),
		})
	}
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

// RunQueryCached serves the query from the DX cache when possible (the
// interactive path: "the user can quickly review and manipulate the
// results of several recently issued queries without necessitating a
// database reaccess"). On a miss it falls through to RunQuery.
func (s *System) RunQueryCached(spec QuerySpec) (*QueryResult, bool, error) {
	if field, ok := s.Cache.Get(spec.Key()); ok {
		img, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
		if err != nil {
			return nil, false, err
		}
		return &QueryResult{
			Spec:  spec,
			Data:  field.Data,
			Field: field,
			Image: img,
			Timing: QueryTiming{
				Label:  spec.Label() + " (cached)",
				HRuns:  field.Data.Region.NumRuns(),
				Voxels: field.Data.Region.NumVoxels(),
			},
		}, true, nil
	}
	res, err := s.RunQuery(spec)
	return res, false, err
}

// ExplainSpec renders the physical operator tree for the SQL the
// MedicalServer would generate for spec — the visibility hook for
// where the planner placed each spatial predicate relative to the
// extractVoxels() projection. With analyze set the query actually
// executes and each line carries its runtime counters (rows in/out,
// UDF calls, LFM pages charged to that operator's expressions). Band
// queries are prefixed with a "band repr:" line naming the REGION
// representation the query resolves to and whether the planner picked
// it or the spec forced it.
func (s *System) ExplainSpec(spec QuerySpec, analyze bool) ([]string, error) {
	var lines []string
	if spec.HasBand {
		src := "forced"
		if spec.Encoding == "" {
			spec.Encoding = s.bandEncoding(spec.StudyID, spec.BandLo, spec.BandHi)
			src = "planner-selected"
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

// splitResponse validates the response frame and separates the JSON
// meta header from the DataRegion blob. Truncated or corrupted frames
// fail with ErrFrameTruncated/ErrFrameCorrupt — typed, retryable — so
// a damaged reply is never mis-parsed as data.
func splitResponse(resp []byte) (*QueryMeta, []byte, error) {
	header, blob, err := decodeFrame(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: response: %w", err)
	}
	var meta QueryMeta
	if err := json.Unmarshal(header, &meta); err != nil {
		return nil, nil, fmt.Errorf("qbism: bad response header: %w", err)
	}
	return &meta, blob, nil
}
