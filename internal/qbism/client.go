package qbism

import (
	"fmt"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/dx"
	"qbism/internal/medserver"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// Client is the DX half of a query — the paper's front end (§5.2): it
// frames the spec, hands it to a MedicalServer, imports and renders the
// reply, fills the DX cache and feeds the observability sinks; Table 3
// prices its work (PriceQuery). It needs no server in its process:
// NewClient over a dialed transport is a complete front end. System and
// ClusterSystem both embed one, so a query runs, batches, and finishes
// through the same code however it was carried.
type Client struct {
	Cache *dx.Cache

	// Cluster carries every fetch, with its retries, failover and
	// hedging: a ClusterSystem's shards, or one shard of one node ("s0p")
	// in front of a single server — the same read loop either way.
	Cluster *cluster.Cluster

	// Tracer is the query tracer (nil unless Config.Trace or WithSlowLog).
	// Metrics is the registry — always present, so counters accumulate
	// whether or not tracing is on; the cluster's series are in it too.
	// SlowLog is the slow-query ring (nil unless WithSlowLog).
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	SlowLog *obs.SlowLog

	slowThresh time.Duration
	workers    int // RunQueries' pool size when the caller passes none
	// routes maps a study to its routing key; nil for a single server,
	// whose one shard serves every study.
	routes map[int]cluster.Key
}

// fetched is one answered exchange. It is returned by value: a query
// makes one, reads it once, and nothing keeps it.
type fetched struct {
	meta QueryMeta
	blob []byte
	read cluster.ReadInfo
}

// slowLogCapacity is the slow-query ring size.
const slowLogCapacity = 32

// Option sets what only the DX client reads. New, NewClient and
// NewClusterSystem take the same ones, and none is invalid on any.
type Option func(*clientOptions)

type clientOptions struct {
	retry   transport.RetryPolicy
	slowLog time.Duration
	workers int
}

// WithRetry governs retries of transient failures: MaxAttempts bounds
// the node calls per read (across a shard's nodes in a cluster), Backoff
// and Seed drive the jittered waits. Without it a read tries once.
func WithRetry(p transport.RetryPolicy) Option { return func(o *clientOptions) { o.retry = p } }

// WithSlowLog keeps the span tree and plan of every query at least d
// slow in Client.SlowLog, and so turns tracing on. A d of zero or less
// leaves the log off.
func WithSlowLog(d time.Duration) Option { return func(o *clientOptions) { o.slowLog = d } }

// WithWorkers bounds the worker pool of a batch (RunQueries) whose
// caller passes no size, and a ClusterSystem's scatter-gather. Without
// it, or with n of zero or one, a batch runs serially.
func WithWorkers(n int) Option { return func(o *clientOptions) { o.workers = n } }

func collectOptions(opts []Option) (o clientOptions) {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewClient builds a DX client that reaches its MedicalServer over t: a
// cluster of one shard of one node, no breaker or hedging. Of cfg it
// reads Trace. Its sinks start empty: query traffic only.
func NewClient(t transport.Transport, cfg Config, opts ...Option) *Client {
	return newNodeClient(t, cfg, collectOptions(opts), obs.NewRegistry())
}

// newNodeClient is NewClient with the registry the client and its
// cluster report into.
func newNodeClient(t transport.Transport, cfg Config, o clientOptions, metrics *obs.Registry) *Client {
	return newClient(cfg, o, metrics, cluster.Config{}, [][]cluster.Node{{&transportNode{name: nodeName(0, 0), t: t}}})
}

// newClient builds the client of either topology: one cluster over
// shards, configured by cc and WithRetry, reporting into metrics.
// cluster.New fails only on a shard without nodes, which no caller has.
func newClient(cfg Config, o clientOptions, metrics *obs.Registry, cc cluster.Config, shards [][]cluster.Node) *Client {
	cc.Retry, cc.Metrics = o.retry.WithDefaults(), metrics
	cl, _ := cluster.New(cc, shards)
	c := &Client{
		Cache:      dx.NewCache(8),
		Cluster:    cl,
		Metrics:    metrics,
		slowThresh: o.slowLog,
		workers:    o.workers,
	}
	if cfg.Trace || o.slowLog > 0 {
		c.Tracer = obs.NewTracer()
	}
	if o.slowLog > 0 {
		c.SlowLog = obs.NewSlowLog(slowLogCapacity)
	}
	return c
}

// transportNode adapts one node's Transport to the cluster.Node seam:
// the cluster does not know whether a node is a simulated link or a
// live daemon — it consumes each exchange's own bill either way, so
// calls to one node run as concurrently as its transport allows.
type transportNode struct {
	name string
	t    transport.Transport
}

func (n *transportNode) Name() string { return n.name }

// Call is one exchange with the node; the cluster validates the reply.
func (n *transportNode) Call(parent *obs.Span, method string, request []byte) ([]byte, transport.Stats, error) {
	return n.t.Exchange(parent, method, request)
}

// fetch is the one fetch, whatever the topology: route the study to its
// key, then read it from the cluster with failover, retries and hedging.
// Each node reply is checked and decoded once, inside the read: a reply
// corrupted past the link layer's own checks is that attempt's failure,
// retried or failed over like a failed call, rather than a fault
// downstream in the DX import. The first valid reply is the one the read
// returns; a hedge's is checked and dropped.
func (c *Client) fetch(root *obs.Span, spec QuerySpec, request []byte) (fetched, error) {
	var f fetched
	key := cluster.Key{Study: spec.StudyID}
	if c.routes != nil {
		var ok bool
		if key, ok = c.routes[spec.StudyID]; !ok {
			// Unroutable: terminal, not a shard health problem.
			return f, fmt.Errorf("qbism: no study %d in the cluster corpus", spec.StudyID)
		}
	}
	var err error
	var kept bool
	_, f.read, err = c.Cluster.Read(root, key, QueryMethod, request, func(resp []byte) error {
		if kept { // a later reply, a hedge's: checked, then dropped
			var meta QueryMeta
			_, err := medserver.DecodeQueryResponseInto(&meta, resp)
			return err
		}
		blob, err := medserver.DecodeQueryResponseInto(&f.meta, resp)
		f.blob, kept = blob, err == nil
		return err
	})
	if err != nil {
		return f, fmt.Errorf("qbism: query failed after %d attempt(s): %w", f.read.Attempts, err)
	}
	return f, nil
}

// RunQuery executes a query end to end: the spec crosses the network to
// the MedicalServer, SQL runs in the database, the result crosses back,
// DX imports it, renders an image and keeps the field in the DX cache,
// which only RunQueryCached reads. Every component's work is counted
// and timed.
//
// The network exchange is resilient: both directions are CRC-framed so
// corruption and truncation surface as typed errors, and transient
// failures (drops, timeouts, corrupt frames, device read faults) are
// retried — on the one node of a single server, across a shard's nodes
// in a cluster — with capped exponential backoff and deterministic
// jitter. Backoff is simulated time — no real sleeping — reported in
// Read.BackoffSim. The result's Read field reports how the read was
// served.
func (c *Client) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return c.runQuerySpan(nil, spec)
}

// runQuerySpan is RunQuery with an optional parent span (the batch
// root, for RunQueries). With tracing enabled it produces the query's
// span tree, feeds the metrics registry, and captures slow queries.
func (c *Client) runQuerySpan(parent *obs.Span, spec QuerySpec) (*QueryResult, error) {
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

	// The request frame seeds the retry jitter; its header — it has no
	// body — is the spec's wire bytes and, as a string, the key
	// QuerySpec.Key returns, which the DX cache uses.
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		return nil, c.fail(root, cluster.ReadInfo{}, err)
	}
	f, err := c.fetch(root, spec, request)
	if err != nil {
		return nil, c.fail(root, f.read, err)
	}
	return c.finish(root, spec, string(request[transport.FrameOverhead:]), f, totalStart)
}

// finish performs the client-side DX stages — import, render, cache —
// and feeds the observability sinks. key is spec.Key(), which the
// caller already has as its request body.
func (c *Client) finish(root *obs.Span, spec QuerySpec, key string, f fetched, totalStart time.Time) (*QueryResult, error) {
	meta, read := &f.meta, f.read
	importStart := time.Now()
	importSp := root.Child("dx.import")
	// The reply's REGION stays encoded: the render walks its runs off
	// the wire bytes, and QueryResult.Data decodes it only if asked.
	enc, values, err := medserver.SplitDataRegion(f.blob)
	if err != nil {
		importSp.End()
		return nil, c.fail(root, read, err)
	}
	field, importStats, err := dx.ImportEncoded(enc, values)
	importSp.SetInt("voxels", int64(importStats.Voxels))
	importSp.SetInt("runs", int64(importStats.Runs))
	importSp.End()
	if err != nil {
		return nil, c.fail(root, read, err)
	}
	importDur := time.Since(importStart)

	renderStart := time.Now()
	renderSp := root.Child("dx.render")
	img, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
	renderSp.End()
	if err != nil {
		return nil, c.fail(root, read, err)
	}
	renderDur := time.Since(renderStart)
	c.Cache.Put(key, field)

	t := QueryTiming{
		HRuns:          field.NumRuns(),
		Voxels:         field.NumVoxels(),
		LFMPages:       meta.LFMPages,
		DBMeasured:     time.Duration(meta.DBCPUNanos),
		NetMessages:    read.Net.Messages,
		ImportMeasured: importDur,
		RenderMeasured: renderDur,
		TotalMeasured:  time.Since(totalStart),
	}

	root.SetInt("attempts", int64(read.Attempts))
	root.SetInt("retries", int64(read.Retries))
	root.SetInt("lfm.pages", int64(meta.LFMPages))
	root.SetInt("voxels", int64(t.Voxels))
	if meta.Degraded {
		root.SetStr("degraded", meta.Warning)
	}
	root.End()
	c.observe(spec, t, read.Retries, root)

	return &QueryResult{
		Spec: spec, Meta: *meta, Field: field, Image: img, Timing: t, Read: read, Trace: root,
	}, nil
}

// fail finishes a query's observability on the error path: the root
// span is annotated and ended, and the error counters bump.
func (c *Client) fail(root *obs.Span, read cluster.ReadInfo, err error) error {
	root.SetStr("error", err.Error())
	root.SetInt("attempts", int64(read.Attempts))
	root.SetInt("retries", int64(read.Retries))
	root.End()
	c.Metrics.Counter("qbism_queries_total").Inc()
	c.Metrics.Counter("qbism_query_errors_total").Inc()
	c.Metrics.Counter("qbism_retries_total").Add(int64(read.Retries))
	return err
}

// observe feeds the metrics registry and, when the query's measured
// latency reaches the slow-log threshold, captures the full span tree
// plus the executed plan into the slow-query ring.
func (c *Client) observe(spec QuerySpec, t QueryTiming, retries int, root *obs.Span) {
	c.Metrics.Counter("qbism_queries_total").Inc()
	c.Metrics.Counter("qbism_retries_total").Add(int64(retries))
	c.Metrics.Histogram("qbism_query_latency_seconds", obs.LatencyBuckets).
		Observe(t.TotalMeasured.Seconds())
	c.Metrics.Histogram("qbism_query_lfm_pages", obs.PageBuckets).
		Observe(float64(t.LFMPages))
	if c.SlowLog != nil && root != nil && t.TotalMeasured >= c.slowThresh {
		c.SlowLog.Add(obs.SlowEntry{
			Label:   spec.Label(),
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
			Spec:   spec,
			Field:  field,
			Image:  img,
			Timing: QueryTiming{HRuns: field.NumRuns(), Voxels: field.NumVoxels()},
		}, true, nil
	}
	res, err := c.RunQuery(spec)
	return res, false, err
}
