package qbism

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/dx"
	"qbism/internal/medserver"
	"qbism/internal/obs"
	"qbism/internal/par"
	"qbism/internal/region"
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
	Cache *dx.Cache[cacheKey]

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
	// side is the configured grid's side, which RunQueries cuts its
	// images' pixel slabs for.
	side int
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

// answer is an answered query as the client allocates it: one object
// holding the result, the field DX imported, the header of the image it
// rendered, the room its request was framed in, and the room the reply
// header's strings were decoded into (res.Meta's patient, date and
// warning point into meta). The reply and the image's pixels are the
// query's only other allocations, and each is kept: the field reads the
// reply's bytes, the image holds the pixels. A header whose strings
// outgrow the room, a degraded reply's long warning, adds one more.
// RunQuery allocates one answer a query; RunQueries allocates its
// answers, and their images' pixels, in slabs of at most cacheCapacity
// (answerSlab). The DX cache keeps &field, so a cached entry pins its
// answer's whole slab: a single query's answer, reply and image, or up
// to cacheCapacity answers and images of one batch, with each of their
// replies. A full cache so pins at most cacheCapacity² answers and
// images, however large the batches that filled it.
type answer struct {
	res   QueryResult
	field dx.Field
	img   dx.Image
	req   [medserver.RequestRoom]byte
	meta  [medserver.MetaRoom]byte
}

// cacheKey is the DX cache's key for a spec: its fields, the box by
// value, so a lookup builds nothing. Two specs share a key exactly when
// their wire bytes — QuerySpec.Key — are equal: the wire carries every
// field, the box's presence as a flag and the band bounds whether or not
// the band flag is set.
type cacheKey struct {
	spec   QuerySpec // its Box nil
	box    [6]uint32
	hasBox bool
}

func cacheKeyOf(spec QuerySpec) cacheKey {
	k := cacheKey{spec: spec}
	if spec.Box != nil {
		k.spec.Box, k.box, k.hasBox = nil, *spec.Box, true
	}
	return k
}

// slowLogCapacity is the slow-query ring size.
const slowLogCapacity = 32

// cacheCapacity is the DX cache's size, in fields, and the most answers
// RunQueries allocates in one slab, which bounds what the cache pins
// (answer).
const cacheCapacity = 8

// Option sets what only the DX client reads. New, NewClient and
// NewClusterSystem take the same ones, and none is invalid on any.
type Option func(*clientOptions)

type clientOptions struct {
	retry   transport.RetryPolicy
	slowLog time.Duration
}

// WithRetry governs retries of transient failures: MaxAttempts bounds
// the node calls per read (across a shard's nodes in a cluster), Backoff
// and Seed drive the jittered waits. Without it a read tries once.
func WithRetry(p transport.RetryPolicy) Option { return func(o *clientOptions) { o.retry = p } }

// WithSlowLog keeps the span tree and plan of every query at least d
// slow in Client.SlowLog, and so turns tracing on. A d of zero or less
// leaves the log off.
func WithSlowLog(d time.Duration) Option { return func(o *clientOptions) { o.slowLog = d } }

func collectOptions(opts []Option) (o clientOptions) {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewClient builds a DX client that reaches its MedicalServer over t: a
// cluster of one shard of one node, no breaker or hedging. Of cfg it
// reads Trace and Bits: a batch's pixel slabs are cut for that grid, and
// a reply of another grid renders into a buffer of its own. Its sinks
// start empty: query traffic only.
func NewClient(t transport.Transport, cfg Config, opts ...Option) *Client {
	return newNodeClient(t, cfg, collectOptions(opts), obs.NewRegistry())
}

// newNodeClient is NewClient with the registry the client and its
// cluster report into.
func newNodeClient(t transport.Transport, cfg Config, o clientOptions, metrics *obs.Registry) *Client {
	return newClient(cfg, o, metrics, cluster.Config{}, [][]transport.Transport{{t}})
}

// newClient builds the client of either topology: one cluster over
// shards, configured by cc and WithRetry, reporting into metrics. Of cfg
// it reads Trace and Bits, whose grid sets the side of a batch's images.
// cluster.New fails only on a shard without nodes, which no caller has.
func newClient(cfg Config, o clientOptions, metrics *obs.Registry, cc cluster.Config, shards [][]transport.Transport) *Client {
	cc.Retry, cc.Metrics = o.retry.WithDefaults(), metrics
	cl, _ := cluster.New(cc, shards)
	c := &Client{
		Cache:      dx.NewCache[cacheKey](cacheCapacity),
		Cluster:    cl,
		Metrics:    metrics,
		slowThresh: o.slowLog,
		side:       1 << cfg.WithDefaults().Bits,
	}
	if cfg.Trace || o.slowLog > 0 {
		c.Tracer = obs.NewTracer()
	}
	if o.slowLog > 0 {
		c.SlowLog = obs.NewSlowLog(slowLogCapacity)
	}
	return c
}

// route returns a study's routing key: its entry in the routing table,
// or on a single server, whose one shard serves every study, the study
// alone. A study the table lacks is unroutable: terminal, not a shard
// health problem.
func (c *Client) route(study int) (cluster.Key, error) {
	if c.routes == nil {
		return cluster.Key{Study: study}, nil
	}
	key, ok := c.routes[study]
	if !ok {
		return key, fmt.Errorf("qbism: no study %d in the cluster corpus", study)
	}
	return key, nil
}

// fetch is the one fetch, whatever the topology: route the study to its
// key, then read it from the cluster with failover, retries and hedging.
// Each node reply is checked and decoded once, inside the read: a reply
// corrupted past the link layer's own checks is that attempt's failure,
// retried or failed over like a failed call, rather than a fault
// downstream in the DX import. The first valid reply is the one the read
// returns, its header's strings decoded into room; a hedge's is checked
// and dropped, in a room of the check's own, which stays on its stack.
func (c *Client) fetch(root *obs.Span, spec QuerySpec, request []byte, room *[medserver.MetaRoom]byte) (fetched, error) {
	var f fetched
	key, err := c.route(spec.StudyID)
	if err != nil {
		return f, err
	}
	var kept bool
	_, f.read, err = c.Cluster.Read(root, key, QueryMethod, request, func(resp []byte) error {
		if kept { // a later reply, a hedge's: checked, then dropped
			var hedge [medserver.MetaRoom]byte
			_, _, err := medserver.DecodeQueryResponseInto(&hedge, resp)
			return err
		}
		meta, blob, err := medserver.DecodeQueryResponseInto(room, resp)
		f.meta, f.blob, kept = meta, blob, err == nil
		return err
	})
	if err != nil {
		return f, fmt.Errorf("qbism: query failed after %d attempt(s): %w", f.read.Attempts, err)
	}
	return f, nil
}

// population is one shard's share of a population call: its studies,
// its request's room, and its answer or error. A call allocates one per
// shard, in one slice.
type population struct {
	studies []int
	r       region.Region
	err     error
	req     [medserver.PopulationRoom]byte
}

// ConsistentBandRegion asks where every listed study has intensities in
// [bandLo, bandHi] under the given band label. Each shard (a single
// server is shard 0) gets one request naming its studies, through the
// one cluster read, and replies with the fold of their stored band rows;
// the client intersects the answers. The shards are read on a pool of
// workers goroutines (one or fewer: serially); a cluster of one calls
// its shard directly. No DX stage runs and no query is counted; a trace
// is one "population" span over the reads. A shard lost past retries
// leaves its studies out, and the PartialResult names it; err is a
// terminal failure (the first in shard order), or says no shard answered.
func (c *Client) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, *cluster.PartialResult, error) {
	if len(studies) == 0 {
		return nil, nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	for _, id := range studies {
		if _, err := c.route(id); err != nil {
			return nil, nil, err
		}
	}
	root := c.Tracer.Start("population")
	defer root.End()
	part := c.Cluster.Partitioner()
	shards := make([]population, part.Shards())
	if len(shards) == 1 {
		shards[0].studies = studies
		c.readPopulation(root, 0, &shards[0], bandLo, bandHi, encoding)
	} else {
		// The studies grouped by shard, each shard's in input order.
		grouped := make([]int, 0, len(studies))
		for sh := range shards {
			start := len(grouped)
			for _, id := range studies {
				if key, _ := c.route(id); part.Shard(key) == sh {
					grouped = append(grouped, id)
				}
			}
			shards[sh].studies = grouped[start:]
		}
		par.Each(len(shards), workers, func(sh int) { c.readPopulation(root, sh, &shards[sh], bandLo, bandHi, encoding) })
	}
	var few [8]*region.Region
	answers := few[:0]
	var lost, terminal error
	for i := range shards {
		switch p := &shards[i]; {
		case len(p.studies) == 0:
		case p.err == nil:
			answers = append(answers, &p.r)
		case errors.Is(p.err, cluster.ErrShardUnavailable):
			lost = cmp.Or(lost, p.err)
		default:
			terminal = cmp.Or(terminal, p.err)
		}
	}
	var partial *cluster.PartialResult
	if lost != nil {
		partial = c.Cluster.BuildPartial(root, len(studies), func(i int) (cluster.Key, error) {
			key, _ := c.route(studies[i])
			return key, shards[part.Shard(key)].err
		})
	}
	switch {
	case terminal != nil:
		return nil, partial, fmt.Errorf("qbism: population query: %w", terminal)
	case len(answers) == 0:
		return nil, partial, fmt.Errorf("qbism: all %d studies lost: %w", len(studies), lost)
	case len(answers) == 1:
		return answers[0], partial, nil
	}
	answer, err := region.IntersectN(answers...)
	return answer, partial, err
}

// readPopulation asks one shard about p's studies, if any: the request
// framed in p's room, and the first reply that decodes decoded into p's
// answer; a later one, a hedge's, is checked and dropped.
func (c *Client) readPopulation(root *obs.Span, shard int, p *population, bandLo, bandHi int, encoding string) {
	if len(p.studies) == 0 {
		return
	}
	q := medserver.PopulationQuery{Studies: p.studies, BandLo: bandLo, BandHi: bandHi, Encoding: encoding}
	var request []byte
	if request, p.err = medserver.EncodePopulationRequestInto(p.req[:], &q); p.err != nil {
		return
	}
	kept := false
	_, _, p.err = c.Cluster.ReadShard(root, shard, medserver.PopulationMethod, request, func(resp []byte) error {
		if kept {
			var hedge region.Region
			return medserver.DecodePopulationReply(&hedge, resp)
		}
		err := medserver.DecodePopulationReply(&p.r, resp)
		kept = err == nil
		return err
	})
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
	return c.runQuerySpan(nil, new(answer), spec)
}

// runQuerySpan is RunQuery into the caller's answer a, with an optional
// parent span (the batch root, for RunQueries). With tracing enabled it
// produces the query's span tree, feeds the metrics registry, and
// captures slow queries. A failed query's answer is no result's.
func (c *Client) runQuerySpan(parent *obs.Span, a *answer, spec QuerySpec) (*QueryResult, error) {
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

	// The request frame seeds the retry jitter. It is framed in the
	// answer's room, as the reply's header strings are decoded into the
	// answer's other room and the reply is imported and rendered into
	// the answer's field and image.
	request, err := medserver.EncodeQueryRequestInto(a.req[:], spec)
	if err != nil {
		return nil, c.fail(root, cluster.ReadInfo{}, err)
	}
	f, err := c.fetch(root, spec, request, &a.meta)
	if err != nil {
		return nil, c.fail(root, f.read, err)
	}
	return c.finish(root, a, spec, f, totalStart)
}

// finish performs the client-side DX stages — import, render, cache —
// into a, and feeds the observability sinks.
func (c *Client) finish(root *obs.Span, a *answer, spec QuerySpec, f fetched, totalStart time.Time) (*QueryResult, error) {
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
	importStats, err := dx.ImportEncoded(&a.field, enc, values)
	importSp.SetInt("voxels", int64(importStats.Voxels))
	importSp.SetInt("runs", int64(importStats.Runs))
	importSp.End()
	if err != nil {
		return nil, c.fail(root, read, err)
	}
	importDur := time.Since(importStart)

	renderStart := time.Now()
	renderSp := root.Child("dx.render")
	err = a.field.RenderInto(&a.img, dx.RenderOpts{Axis: 2, Mode: dx.MIP})
	renderSp.End()
	if err != nil {
		return nil, c.fail(root, read, err)
	}
	renderDur := time.Since(renderStart)
	c.Cache.Put(cacheKeyOf(spec), &a.field)

	t := QueryTiming{
		HRuns:          a.field.NumRuns(),
		Voxels:         a.field.NumVoxels(),
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

	a.res = QueryResult{
		Spec: spec, Meta: *meta, Field: &a.field, Image: &a.img, Timing: t, Read: read, Trace: root,
	}
	return &a.res, nil
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
	if field, ok := c.Cache.Get(cacheKeyOf(spec)); ok {
		// The same one object as a miss's answer; its Field is the
		// cached one, so its own field and both rooms stay unused.
		a := new(answer)
		if err := field.RenderInto(&a.img, dx.RenderOpts{Axis: 2, Mode: dx.MIP}); err != nil {
			return nil, false, err
		}
		a.res = QueryResult{
			Spec:   spec,
			Field:  field,
			Image:  &a.img,
			Timing: QueryTiming{HRuns: field.NumRuns(), Voxels: field.NumVoxels()},
		}
		return &a.res, true, nil
	}
	res, err := c.RunQuery(spec)
	return res, false, err
}
