package qbism

import (
	"fmt"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/costmodel"
	"qbism/internal/dx"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// Client is the DX half of a query — the paper's front end (§5.2): it
// frames the spec, hands it to a MedicalServer, imports and renders the
// reply, fills the DX cache, prices the work with the cost model and
// feeds the observability sinks. It needs no server in its process:
// NewClient over a dialed transport is a complete front end. System and
// ClusterSystem both embed one, so a query runs, batches, and finishes
// through the same code however it was carried.
type Client struct {
	Model costmodel.Model
	Cache *dx.Cache

	// Transport carries the exchanges to the MedicalServer, with Retry's
	// client-side retries of transient failures over it. Both are read
	// per call, so a caller may repoint a client (a System at a live
	// daemon, say). A ClusterSystem's client routes instead and leaves
	// Transport nil.
	Transport transport.Transport
	Retry     transport.RetryPolicy

	// Tracer is the query tracer (nil unless Config.Trace). Metrics is
	// the registry — always present, so counters accumulate whether or
	// not tracing is on. SlowLog is the slow-query ring (nil unless
	// tracing with a positive SlowLogThreshold).
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	SlowLog *obs.SlowLog

	slowThresh time.Duration
	workers    int // RunQueries' pool size when the caller passes none
	server     server
}

// server is how a framed request reaches a MedicalServer: over one
// transport with client-side retries (the Client itself), or routed to a
// shard and read with failover and hedging (ClusterSystem).
type server interface {
	// fetch carries request and returns the validated reply; the retry
	// history is set on failure too.
	fetch(root *obs.Span, spec QuerySpec, key string, request []byte) (fetched, error)
}

// fetched is one answered exchange. It is returned by value: a query
// makes one, reads it once, and nothing keeps it.
type fetched struct {
	meta     *QueryMeta
	blob     []byte
	retry    transport.RetryStats
	messages uint64        // cost-model messages the exchange took
	latency  time.Duration // its simulated network time
	shard    *cluster.ReadInfo
}

// NewClient builds a DX client that reaches its MedicalServer over t.
// Of cfg it reads Retry, Workers, Trace and the slow-log fields. Its
// sinks start empty, so they describe query traffic only.
func NewClient(t transport.Transport, cfg Config) *Client {
	cfg = cfg.WithDefaults()
	c := &Client{
		Model:      costmodel.Default1993(),
		Cache:      dx.NewCache(8),
		Transport:  t,
		Retry:      cfg.Retry,
		Metrics:    obs.NewRegistry(),
		slowThresh: cfg.SlowLogThreshold,
		workers:    cfg.Workers,
	}
	c.server = c
	if cfg.Trace {
		c.Tracer = obs.NewTracer()
		if cfg.SlowLogThreshold > 0 {
			c.SlowLog = obs.NewSlowLog(cfg.SlowLogCapacity)
		}
	}
	return c
}

// fetch is one logical RPC over c.Transport with c.Retry's
// capped-exponential, deterministically jittered schedule, whatever
// flavor the transport is. Response validation runs inside the loop, so
// a reply corrupted past the link layer's own checks is retried exactly
// like a failed call. The exchange's network cost is the sum of its
// attempts' bills, exact however many queries share the transport.
func (c *Client) fetch(root *obs.Span, _ QuerySpec, key string, request []byte) (fetched, error) {
	var f fetched
	_, retry, net, err := transport.CallRetry(c.Transport, root, QueryMethod, request, c.Retry, key,
		func(resp []byte) (verr error) {
			f.meta, f.blob, verr = DecodeQueryResponse(resp)
			return verr
		})
	f.retry = retry
	if err != nil {
		return f, fmt.Errorf("qbism: query failed after %d attempt(s): %w", retry.Attempts, err)
	}
	f.messages, f.latency = net.Messages, net.Latency
	return f, nil
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
// retried — per Client.Retry on one transport, across a shard's nodes in
// a cluster — with capped exponential backoff and deterministic jitter.
// Backoff is simulated time — no real sleeping — accounted in
// Timing.RetrySim. Through a ClusterSystem the result's Shard field
// reports how the read was served.
func (c *Client) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return c.runQuerySpan(nil, spec)
}

// runQuerySpan is RunQuery with an optional parent span (the batch
// root, for RunQueries). With tracing enabled it produces the query's
// span tree, feeds the metrics registry, and captures slow queries.
func (c *Client) runQuerySpan(parent *obs.Span, spec QuerySpec) (*QueryResult, error) {
	c.Cache.Flush() // §6.1: "we flushed the DX cache before each run"
	totalStart := time.Now()

	var root *obs.Span
	if parent != nil {
		root = parent.Child("query")
	} else {
		root = c.Tracer.Start("query")
	}
	if root != nil {
		root.SetStr("spec", spec.Label())
	}

	// The request frame's header — it has no body — is the spec's wire
	// bytes and, as a string, the key QuerySpec.Key returns: the retry
	// jitter and the DX cache use it.
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		return nil, c.fail(root, transport.RetryStats{}, err)
	}
	key := string(request[transport.FrameOverhead:])
	f, err := c.server.fetch(root, spec, key, request)
	if err != nil {
		return nil, c.fail(root, f.retry, err)
	}
	return c.finish(root, spec, key, f, totalStart)
}

// finish performs the client-side DX stages — import, render, cache —
// prices the work with the cost model, and feeds the observability
// sinks. key is spec.Key(), which the caller already has as its request
// body.
func (c *Client) finish(root *obs.Span, spec QuerySpec, key string, f fetched, totalStart time.Time) (*QueryResult, error) {
	meta, retry := f.meta, f.retry
	importStart := time.Now()
	importSp := root.Child("dx.import")
	data, err := UnmarshalDataRegion(f.blob)
	if err != nil {
		importSp.End()
		return nil, c.fail(root, retry, err)
	}
	field, importStats, err := dx.ImportVolume(data)
	importSp.SetInt("voxels", int64(importStats.Voxels))
	importSp.SetInt("runs", int64(importStats.Runs))
	importSp.End()
	if err != nil {
		return nil, c.fail(root, retry, err)
	}
	importDur := time.Since(importStart)

	renderStart := time.Now()
	renderSp := root.Child("dx.render")
	img, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
	renderSp.End()
	if err != nil {
		return nil, c.fail(root, retry, err)
	}
	renderDur := time.Since(renderStart)
	c.Cache.Put(key, field)

	t := QueryTiming{
		Label:          spec.Label(),
		HRuns:          data.Region.NumRuns(),
		Voxels:         data.Region.NumVoxels(),
		LFMPages:       meta.LFMPages,
		DBMeasured:     time.Duration(meta.DBCPUNanos),
		DBSimReal:      c.Model.StarburstTime(time.Duration(meta.DBCPUNanos), meta.LFMPages),
		NetMessages:    f.messages,
		NetSim:         f.latency,
		ImportMeasured: importDur,
		ImportSim:      c.Model.ImportTime(importStats.Voxels, importStats.Runs),
		RenderMeasured: renderDur,
		RenderSim:      c.Model.RenderTime(importStats.Voxels),
		RetrySim:       retry.BackoffSim,
		OtherSim:       c.Model.OtherTime,
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
	c.observe(t, retry, root)

	return &QueryResult{
		Spec: spec, Meta: *meta, Data: data, Field: field, Image: img, Timing: t, Retry: retry,
		Shard: f.shard, Trace: root,
	}, nil
}

// fail finishes a query's observability on the error path: the root
// span is annotated and ended, and the error counters bump.
func (c *Client) fail(root *obs.Span, retry transport.RetryStats, err error) error {
	root.SetStr("error", err.Error())
	root.SetInt("attempts", int64(retry.Attempts))
	root.SetInt("retries", int64(retry.Retries))
	root.End()
	c.Metrics.Counter("qbism_queries_total").Inc()
	c.Metrics.Counter("qbism_query_errors_total").Inc()
	c.Metrics.Counter("qbism_retries_total").Add(int64(retry.Retries))
	return err
}

// observe feeds the metrics registry and, when the query's measured
// latency reaches the slow-log threshold, captures the full span tree
// plus the executed plan into the slow-query ring.
func (c *Client) observe(t QueryTiming, retry transport.RetryStats, root *obs.Span) {
	c.Metrics.Counter("qbism_queries_total").Inc()
	c.Metrics.Counter("qbism_retries_total").Add(int64(retry.Retries))
	c.Metrics.Histogram("qbism_query_latency_seconds", obs.LatencyBuckets).
		Observe(t.TotalMeasured.Seconds())
	c.Metrics.Histogram("qbism_query_lfm_pages", obs.PageBuckets).
		Observe(float64(t.LFMPages))
	if c.SlowLog != nil && root != nil && t.TotalMeasured >= c.slowThresh {
		c.SlowLog.Add(obs.SlowEntry{
			Label:   t.Label,
			Total:   t.TotalMeasured,
			Tree:    root.RenderString(),
			Explain: explainFromSpan(root),
		})
	}
}

// RunQueryCached serves the query from the DX cache when possible (the
// interactive path: "the user can quickly review and manipulate the
// results of several recently issued queries without necessitating a
// database reaccess"). On a miss it falls through to RunQuery.
func (c *Client) RunQueryCached(spec QuerySpec) (*QueryResult, bool, error) {
	if field, ok := c.Cache.Get(spec.Key()); ok {
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
	res, err := c.RunQuery(spec)
	return res, false, err
}
