package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"qbism/internal/daemon"
	"qbism/internal/dx"
	"qbism/internal/lfm"
	core "qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// Frozen sizes. Every workload measures the paper-scale corpus; a pass
// is one walk over the generated operation list (see gen.go for the
// list sizes: 48, 1 024, 576 and 64 operations).
const (
	paperBits  = 7
	paperPET   = 5
	paperMRI   = 3
	bandWidth  = 32
	maxClients = 2
	// A traced run records spans for at most this many passes: enough
	// for per-layer means, small enough to keep in memory and write out.
	maxTracedPasses = 3
)

// ladder is bulk_open's fixed arrival rates, q/s. The ×2 steps are
// deliberate: the seed commit sits on one rung with a wide margin and
// clearly fails the next.
var ladder = []float64{150, 300, 600, 1200}

// ladderLatencyRung is the rung bulk_open's latency_p50_ms and
// latency_p95_ms are read at (the highest the seed commit sustains).
const ladderLatencyRung = 1

// workloadConfig is the system configuration a workload measures:
// paper scale, every field at its default except the page cache.
func workloadConfig(workload string, smoke bool) core.Config {
	cfg := core.Config{Bits: paperBits, NumPET: paperPET, NumMRI: paperMRI, BandWidth: bandWidth}
	if smoke {
		cfg = core.Config{Bits: 5, NumPET: 2, NumMRI: 1, BandWidth: bandWidth, SmallStudies: true}
	}
	switch workload {
	case wlDaemonSmall:
		cfg.CachePages = 8192 // the whole store fits
	case wlBulkOpen:
		cfg.CachePages = 1024 // 4 MB against 16 MB of VOLUMEs: the CLOCK cache evicts
	}
	return cfg
}

func overTCP(workload string) bool { return workload == wlDaemonSmall || workload == wlBulkOpen }

// clientsFor is the number of closed-loop clients, open-loop
// connections, or executor workers.
func clientsFor(workload string) int {
	switch workload {
	case wlDXInteractive:
		return 1
	case wlBulkOpen:
		return maxClients
	}
	return min(runtime.NumCPU(), maxClients)
}

// expected is what a correct reply to one spec holds, learned in the
// verification pass and checked on every timed reply.
type expected struct {
	voxels uint64
	runs   int
	blob   int // DATA_REGION bytes
}

// harness is one loaded system under test plus everything the load
// generator needs to drive it.
type harness struct {
	workload string
	corp     corpus
	sys      *core.System
	dmn      *daemon.Daemon
	conns    []*transport.TCP
	clients  int
	ops      []op
	specs    []core.QuerySpec // the distinct specs of ops, in first-use order
	pets     []int

	expect     map[specKey]expected
	expectBand map[[2]int]expected // ConsistentBandRegion, by band

	mu       sync.Mutex
	failed   int      // guarded by mu
	problems []string // guarded by mu
}

// outcome returns the failed-operation count and every recorded problem.
func (h *harness) outcome() (int, []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failed, append([]string(nil), h.problems...)
}

// setUp loads the corpus and, for the daemon workloads, starts the
// daemon and dials its connections. It is the program's whole set-up
// as a user would pay it, and what setup_s times.
func setUp(workload string, cfg core.Config) (*harness, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	h := &harness{
		workload: workload, corp: corpusOf(cfg), sys: sys, clients: clientsFor(workload),
		pets:   sys.PETStudyIDs(),
		expect: make(map[specKey]expected), expectBand: make(map[[2]int]expected),
	}
	if !overTCP(workload) {
		return h, nil
	}
	h.dmn = daemon.New(sys, daemon.Config{Addr: "127.0.0.1:0"})
	if err := h.dmn.Start(); err != nil {
		sys.Close()
		return nil, err
	}
	for c := 0; c < h.clients; c++ {
		h.conns = append(h.conns, transport.DialTCP(h.dmn.Addr().String(), transport.TCPOptions{}))
	}
	return h, nil
}

func (h *harness) close() {
	for _, c := range h.conns {
		c.Close()
	}
	if h.dmn != nil {
		h.dmn.Close()
	}
	h.sys.Close()
}

// fail records one failed operation: an error, a typed refusal, or a
// wrong answer. They all land in failed_frac.
func (h *harness) fail(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed++
	if len(h.problems) < 20 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// problem records a reconciliation failure: not an operation, but the
// run is not correct.
func (h *harness) problem(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// call sends one framed request the way the workload's clients do: over
// the client's TCP connection, or through the system's own transport.
func (h *harness) call(client int, request []byte) ([]byte, error) {
	if h.conns != nil {
		return h.conns[client].Call(nil, core.QueryMethod, request)
	}
	return h.sys.Transport.Call(nil, core.QueryMethod, request)
}

// clientStats sums the client-side transport meters.
func (h *harness) clientStats() transport.Stats {
	if h.conns == nil {
		return h.sys.Transport.Stats()
	}
	var sum transport.Stats
	for _, c := range h.conns {
		s := c.Stats()
		sum.Calls += s.Calls
		sum.Errors += s.Errors
		sum.Messages += s.Messages
		sum.BytesOut += s.BytesOut
		sum.BytesIn += s.BytesIn
		sum.Retries += s.Retries
		sum.Latency += s.Latency
	}
	return sum
}

// opStats is what one operation reports back to the pass.
type opStats struct {
	queries   int
	voxels    uint64
	runs      int
	metaPages uint64 // Σ QueryMeta.LFMPages
	respBytes int    // Σ DATA_REGION payload bytes
	importDur time.Duration
	renderDur time.Duration
}

func (a *opStats) add(b opStats) {
	a.queries += b.queries
	a.voxels += b.voxels
	a.runs += b.runs
	a.metaPages += b.metaPages
	a.respBytes += b.respBytes
	a.importDur += b.importDur
	a.renderDur += b.renderDur
}

// check compares a reply's voxel and run counts with the verified ones.
func (h *harness) check(spec core.QuerySpec, voxels uint64, runs int) {
	want, ok := h.expect[keyOf(spec)]
	if !ok {
		h.fail("%s: reply for a spec the verification pass never saw", spec.Label())
	} else if want.voxels != voxels || want.runs != runs {
		h.fail("%s: reply has %d voxels in %d runs, verified answer has %d in %d",
			spec.Label(), voxels, runs, want.voxels, want.runs)
	}
}

// chain is the client's blocking chain for one query, stage by stage:
// encode the request, carry it, split the response, unmarshal the
// DATA_REGION, and — at the DX workstation — import and render. The
// daemon workloads always run it; dx_interactive runs it in place of
// System.RunQuery when a traced pass needs a span per stage.
func (h *harness) chain(rec *recorder, client, opID int, spec core.QuerySpec, withDX bool) (st opStats, err error) {
	root := rec.start("loadgen.op", opID, 0)
	defer rec.end(root)
	stage := func(name string, fn func() error) error { return rec.timed(name, opID, root, fn) }

	var request, response, blob []byte
	var meta *core.QueryMeta
	if err = stage("qbism.encode_request", func() (err error) {
		request, err = core.EncodeQueryRequest(spec)
		return err
	}); err != nil {
		return st, err
	}
	if err = stage("transport.call", func() (err error) {
		response, err = h.call(client, request)
		return err
	}); err != nil {
		return st, err
	}
	if err = stage("qbism.decode_response", func() (err error) {
		meta, blob, err = core.DecodeQueryResponse(response)
		return err
	}); err != nil {
		return st, err
	}
	var data *volume.DataRegion
	if err = stage("qbism.unmarshal", func() (err error) {
		data, err = core.UnmarshalDataRegion(blob)
		return err
	}); err != nil {
		return st, err
	}
	voxels, runs := data.Region.NumVoxels(), data.Region.NumRuns()
	if withDX {
		var field *dx.Field
		if err = stage("dx.import", func() (err error) {
			field, _, err = dx.ImportVolume(data)
			return err
		}); err != nil {
			return st, err
		}
		if err = stage("dx.render", func() error {
			_, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
			return err
		}); err != nil {
			return st, err
		}
	}
	if meta.Degraded {
		return st, fmt.Errorf("degraded answer: %s", meta.Warning)
	}
	h.check(spec, voxels, runs)
	return opStats{queries: 1, voxels: voxels, runs: runs, metaPages: meta.LFMPages, respBytes: len(blob)}, nil
}

// runOp executes operation i of the list as the given client. workers
// overrides the executor's pool size for population_batch sweeps.
func (h *harness) runOp(rec *recorder, client, i, workers int) (opStats, bool) {
	o := h.ops[i%len(h.ops)]
	var st opStats
	var err error
	switch {
	case h.workload == wlPopulationBatch:
		st, err = h.sweep(rec, i, o, workers)
	case h.workload == wlDXInteractive && rec == nil:
		st, err = h.interactive(o.Spec)
	default:
		st, err = h.chain(rec, client, i, o.Spec, h.workload == wlDXInteractive)
	}
	if err != nil {
		h.fail("%s: %v", o.Spec.Label(), err)
	}
	return st, err == nil
}

// interactive is the clinician's query: System.RunQuery, end to end.
func (h *harness) interactive(spec core.QuerySpec) (opStats, error) {
	res, err := h.sys.RunQuery(spec)
	if err != nil {
		return opStats{}, err
	}
	if res.Meta.Degraded {
		return opStats{}, fmt.Errorf("degraded answer: %s", res.Meta.Warning)
	}
	return h.resultStats(spec, res), nil
}

func (h *harness) resultStats(spec core.QuerySpec, res *core.QueryResult) opStats {
	h.check(spec, res.Timing.Voxels, res.Timing.HRuns)
	return opStats{
		queries: 1, voxels: res.Timing.Voxels, runs: res.Timing.HRuns,
		// RunQuery keeps the decoded reply, not its bytes; a reply whose
		// counts match the verified one has the verified size.
		metaPages: res.Meta.LFMPages, respBytes: h.expect[keyOf(spec)].blob,
		importDur: res.Timing.ImportMeasured, renderDur: res.Timing.RenderMeasured,
	}
}

// sweep is one population_batch operation: the structure ∩ band query
// over every study through the parallel executor, then the region
// where every PET study is in the band.
func (h *harness) sweep(rec *recorder, opID int, o op, workers int) (st opStats, err error) {
	root := rec.start("loadgen.op", opID, 0)
	defer rec.end(root)
	var items []core.BatchItem
	_ = rec.timed("qbism.run_queries", opID, root, func() error {
		items = h.sys.RunQueries(sweepSpecs(h.corp, o), workers)
		return nil
	})
	for _, item := range items {
		if item.Err != nil {
			return st, item.Err
		}
		if item.Res.Meta.Degraded {
			return st, fmt.Errorf("degraded answer: %s", item.Res.Meta.Warning)
		}
		st.add(h.resultStats(item.Spec, item.Res))
	}
	var r *region.Region
	if err = rec.timed("qbism.consistent_band_region", opID, root, func() (err error) {
		r, err = h.sys.ConsistentBandRegion(h.pets, o.Spec.BandLo, o.Spec.BandHi, core.EncHilbertNaive, workers)
		return err
	}); err != nil {
		return st, err
	}
	want := h.expectBand[[2]int{o.Spec.BandLo, o.Spec.BandHi}]
	if r.NumVoxels() != want.voxels || r.NumRuns() != want.runs {
		h.fail("consistent band %d-%d: %d voxels in %d runs, verified answer has %d in %d",
			o.Spec.BandLo, o.Spec.BandHi, r.NumVoxels(), r.NumRuns(), want.voxels, want.runs)
	}
	st.queries++
	return st, nil
}

// verify is the untimed verification pass: every distinct spec of the
// operation list is served once over the workload's own path and must
// be byte-identical to the staged replay. It also learns the counts the
// timed passes check, and warms the path. With a recorder it is the
// traced run's server-side view as well: each spec's paired direct
// ServeRPC call and replay stages become spans.
func (h *harness) verify(rec *recorder) (specs int) {
	rp := newReplayer(h.sys)
	for i, spec := range h.specs {
		specs++
		request, err := core.EncodeQueryRequest(spec)
		if err != nil {
			h.fail("%s: %v", spec.Label(), err)
			continue
		}
		response, err := h.call(0, request)
		if err != nil {
			h.fail("%s: %v", spec.Label(), err)
			continue
		}
		_, blob, err := core.DecodeQueryResponse(response)
		if err != nil {
			h.fail("%s: %v", spec.Label(), err)
			continue
		}
		if rec != nil {
			// The pair the transport's self time comes from: the same
			// request carried by the transport and handed to the server
			// directly, back to back on a warm path.
			_ = rec.timed("transport.call", i, 0, func() error { _, err := h.call(0, request); return err })
			_ = rec.timed("qbism.serve_rpc", i, 0, func() error {
				_, err := h.sys.ServeRPC(nil, core.QueryMethod, request)
				return err
			})
		}
		root := rec.start("replay", i, 0)
		want, err := rp.replay(rec, i, root, spec)
		rec.end(root)
		if err != nil {
			h.fail("%s: staged replay: %v", spec.Label(), err)
			continue
		}
		if !bytes.Equal(blob, want) {
			h.fail("%s: served DATA_REGION (%d bytes) differs from the staged replay (%d bytes)",
				spec.Label(), len(blob), len(want))
			continue
		}
		d, err := core.UnmarshalDataRegion(blob)
		if err != nil {
			h.fail("%s: %v", spec.Label(), err)
			continue
		}
		h.expect[keyOf(spec)] = expected{voxels: d.Region.NumVoxels(), runs: d.Region.NumRuns(), blob: len(blob)}
	}
	if h.workload != wlPopulationBatch {
		return specs
	}
	// ConsistentBandRegion's answer, from the band REGIONs the loader
	// kept in memory — a path that touches neither sdb nor the LFM.
	for bi, b := range h.corp.Bands {
		specs++
		var regions []*region.Region
		for _, study := range h.pets {
			regions = append(regions, h.sys.BandRegions[study][bi].Region)
		}
		want, err := region.IntersectN(regions...)
		if err != nil {
			h.fail("band %d-%d: %v", b[0], b[1], err)
			continue
		}
		got, err := h.sys.ConsistentBandRegion(h.pets, b[0], b[1], core.EncHilbertNaive, h.clients)
		if err != nil {
			h.fail("band %d-%d: %v", b[0], b[1], err)
			continue
		}
		root := rec.start("replay.band", bi, 0)
		staged, err := rp.replayBand(rec, bi, root, h.pets, b, core.EncHilbertNaive)
		rec.end(root)
		if err != nil {
			h.fail("band %d-%d: staged replay: %v", b[0], b[1], err)
			continue
		}
		if !got.Equal(want) || !staged.Equal(want) {
			h.fail("consistent band %d-%d differs from the in-memory intersection", b[0], b[1])
			continue
		}
		h.expectBand[[2]int{b[0], b[1]}] = expected{voxels: want.NumVoxels(), runs: want.NumRuns()}
	}
	return specs
}

// counters is a snapshot of every cumulative counter the timed window
// takes deltas of.
type counters struct {
	lfm      lfm.Stats
	client   transport.Stats
	mallocs  uint64
	registry map[string]int64
}

var registryCounters = []string{
	"sdb_queries_total", "sdb_udf_calls_total", "sdb_udf_probe_calls_total", "sdb_query_errors_total",
	"qbism_region_probe_total", "qbism_region_decode_total",
	"qbism_degraded_total", "qbism_query_errors_total", "qbism_retries_total",
	"transport_server_frame_errors_total",
}

func (h *harness) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{lfm: h.sys.LFM.Stats(), client: h.clientStats(), mallocs: ms.Mallocs,
		registry: make(map[string]int64)}
	for _, name := range registryCounters {
		c.registry[name] = h.sys.Metrics.Counter(name).Value()
	}
	return c
}

// pagesInUse is the LFM's allocated device pages.
func (h *harness) pagesInUse() uint64 {
	return h.sys.LFM.Capacity()/h.sys.LFM.PageSize() - h.sys.LFM.FreePages()
}
