package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"qbism/internal/atlas"
	"qbism/internal/lfm"
	"qbism/internal/obs"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/synth"
	"qbism/internal/transport"
	"qbism/internal/volume"
	"qbism/internal/warp"
)

// The traced run. End-to-end numbers never come from here: the window
// w was measured untraced, and everything below either re-runs the
// workload with the benchmark's own spans around each call into a
// layer, or times a layer's exported functions directly on paper-scale
// inputs taken from the loaded system.

// traced produces the per-layer metrics, the self-time tables and the
// trace file of one workload.
func (h *harness) traced(res *result, w *window, srv *recorder, budget time.Duration) (traceFile, error) {
	pl := make(metricSet)
	res.PerLayer = pl

	// The same workload again with spans on. population_batch is traced
	// with a serial executor so a sweep's spans nest instead of
	// overlapping; its untraced serial pass is also the denominator of
	// qbism.batch_speedup.
	client := newRecorder()
	var tw *window
	untracedQPS := res.EndToEnd["throughput_qps"].Value
	switch h.workload {
	case wlBulkOpen:
		top := ladder[len(ladder)-1:]
		tw = h.runLadder(client, budget/time.Duration(len(ladder)), top)
		pl.set("obs.trace_overhead_frac", "ratio", 1-ratio(tw.ladder[0].AchievedQPS, untracedQPS))
	case wlPopulationBatch:
		serial := h.runClosed(nil, 0, 1, 1)
		serialQPS := median(serial.series["throughput_qps"])
		pl.set("qbism.batch_speedup", "ratio", ratio(untracedQPS, serialQPS))
		tw = h.runClosed(client, budget/2, maxTracedPasses, 1)
		pl.set("obs.trace_overhead_frac", "ratio", 1-ratio(median(tw.series["throughput_qps"]), serialQPS))
	default:
		tw = h.runClosed(client, budget/2, maxTracedPasses, h.clients)
		pl.set("obs.trace_overhead_frac", "ratio", 1-ratio(median(tw.series["throughput_qps"]), untracedQPS))
	}

	load := newRecorder()
	if err := h.stagedLoad(load, pl); err != nil {
		return traceFile{}, fmt.Errorf("staged load: %w", err)
	}
	if err := h.layerTimings(pl); err != nil {
		return traceFile{}, fmt.Errorf("layer timings: %w", err)
	}
	h.counterMetrics(pl, w)

	clientSpans, serverSpans := client.snapshot(), srv.snapshot()
	view := h.serverView(serverSpans)
	h.spanMetrics(pl, clientSpans, serverSpans, view)
	res.SelfTime = h.selfTimeTable(clientSpans, view, tw)
	return traceFile{Client: clientSpans, Server: serverSpans, Load: load.snapshot()}, nil
}

// timeCalls is the median duration of n calls of fn.
func timeCalls(n int, fn func() error) (time.Duration, error) {
	durs := make([]float64, n)
	for i := range durs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(durs)), nil
}

// stagedLoad repeats the write path for one PET study by hand — atlas,
// synthesis, registration and resampling, curve reordering, banding,
// REGION encoding, long-field allocation on a private manager — so
// work moved into set-up is visible per layer.
func (h *harness) stagedLoad(rec *recorder, pl metricSet) error {
	cfg := h.sys.Cfg
	side := h.sys.Side()
	stage := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := rec.timed(name, 0, 0, fn)
		return time.Since(t0), err
	}
	curve, err := sfc.New(sfc.Hilbert, 3, cfg.Bits)
	if err != nil {
		return err
	}
	d, err := stage("atlas.build", func() error {
		_, err := atlas.Build(curve, cfg.WithMeshes)
		return err
	})
	if err != nil {
		return err
	}
	pl.set("atlas.build_s", "s", d.Seconds())

	params := synth.Params{StudyID: 1, PatientID: 1, Modality: synth.PET, Seed: cfg.Seed, AtlasSide: side}
	if cfg.SmallStudies {
		g := synth.DefaultGrid(synth.PET, side)
		params.Grid = warp.Grid{NX: g.NX / 2, NY: g.NY / 2, NZ: max(g.NZ, 2)}
	}
	var raw *synth.RawStudy
	if d, err = stage("synth.generate", func() (err error) {
		raw, err = synth.Generate(params)
		return err
	}); err != nil {
		return err
	}
	pl.set("synth.generate_s_per_study", "s", d.Seconds())

	var fitted warp.Affine
	if _, err = stage("warp.fit_landmarks", func() (err error) {
		fitted, err = raw.Register()
		return err
	}); err != nil {
		return err
	}
	var scan []byte
	if d, err = stage("warp.resample", func() (err error) {
		scan, err = warp.Resample(raw.Grid, raw.Data, fitted, side)
		return err
	}); err != nil {
		return err
	}
	pl.set("warp.resample_s_per_study", "s", d.Seconds())

	var vol *volume.Volume
	if _, err = stage("volume.from_scanline", func() (err error) {
		vol, err = volume.FromScanline(curve, scan)
		return err
	}); err != nil {
		return err
	}
	var bands []volume.BandSpec
	if d, err = stage("volume.uniform_bands", func() (err error) {
		bands, err = vol.UniformBands(cfg.BandWidth)
		return err
	}); err != nil {
		return err
	}
	pl.set("volume.band_ns_per_voxel", "ns", ratio(float64(d), float64(vol.NumVoxels())))

	// Both stored copies of every band REGION, as the auto mode keeps.
	encoded := [][]byte{vol.Bytes()}
	var runs int
	if d, err = stage("rencode.encode", func() error {
		for _, b := range bands {
			runs += b.Region.NumRuns()
			for _, m := range []rencode.Method{rencode.Naive, rencode.K3Tree} {
				enc, err := rencode.Encode(m, b.Region)
				if err != nil {
					return err
				}
				encoded = append(encoded, enc)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	mgr, err := lfm.New(uint64(len(vol.Bytes()))*4+(1<<20), lfm.DefaultPageSize)
	if err != nil {
		return err
	}
	defer mgr.Close()
	var stored int
	if d, err = stage("lfm.allocate", func() error {
		for _, data := range encoded {
			if _, err := mgr.Allocate(data); err != nil {
				return err
			}
			stored += len(data)
		}
		return nil
	}); err != nil {
		return err
	}
	pl.set("lfm.allocate_mb_s", "MB/s", ratio(float64(stored)/1e6, d.Seconds()))
	pl.set("lfm.page_writes_per_study", "pages", float64(mgr.Stats().PageWrites))
	return nil
}

// layerTimings times single layers' exported functions on inputs taken
// from the loaded system: one mid-intensity band REGION, one hemisphere,
// the paper's Q2 box, one whole VOLUME.
func (h *harness) layerTimings(pl metricSet) error {
	sys := h.sys
	curve := sys.Curve
	study := h.corp.Studies[0]
	bandIdx := len(h.corp.Bands) * 3 / 8
	band := sys.BandRegions[study][bandIdx].Region
	hemi, err := sys.Atlas.ByName("ntal1")
	if err != nil {
		return err
	}

	// sfc: both directions over a strided walk of the curve.
	const sfcCalls = 1 << 18
	stride := curve.Length()/sfcCalls | 1
	points := make([]sfc.Point, sfcCalls)
	t0 := time.Now()
	for i := range points {
		points[i] = curve.Point(uint64(i) * stride % curve.Length())
	}
	pl.set("sfc.id_to_point_ns", "ns", float64(time.Since(t0))/sfcCalls)
	var sink uint64
	t0 = time.Now()
	for _, p := range points {
		sink += curve.ID(p)
	}
	pl.set("sfc.point_to_id_ns", "ns", float64(time.Since(t0))/sfcCalls)

	// region: the Q2 box (corners 30 and 100 on the 128 grid), a band ∩
	// hemisphere, and the PET studies' n-way band intersection.
	scale := func(v int) uint32 { return uint32(v * sys.Side() / 128) }
	box := region.Box{Min: sfc.Pt(scale(30), scale(30), scale(30)), Max: sfc.Pt(scale(100), scale(100), scale(100))}
	d, err := timeCalls(3, func() error { _, err := region.FromBox(curve, box); return err })
	if err != nil {
		return err
	}
	pl.set("region.from_box_us", "us", us(d))
	if d, err = timeCalls(9, func() error { _, err := region.Intersect(band, hemi.Region); return err }); err != nil {
		return err
	}
	pl.set("region.intersect_us", "us", us(d))
	var petBands []*region.Region
	for _, id := range h.pets {
		petBands = append(petBands, sys.BandRegions[id][bandIdx].Region)
	}
	if d, err = timeCalls(9, func() error { _, err := region.IntersectN(petBands...); return err }); err != nil {
		return err
	}
	pl.set("region.intersect_n_us", "us", us(d))

	// rencode: the run codec both ways, and the k³-tree's parse and probe.
	runs := float64(band.NumRuns())
	var naive, k3 []byte
	if d, err = timeCalls(9, func() (err error) { naive, err = rencode.Encode(rencode.Naive, band); return err }); err != nil {
		return err
	}
	pl.set("rencode.encode_ns_per_run", "ns", ratio(float64(d), runs))
	if d, err = timeCalls(9, func() error { _, err := rencode.Decode(naive); return err }); err != nil {
		return err
	}
	pl.set("rencode.decode_ns_per_run", "ns", ratio(float64(d), runs))
	if k3, err = rencode.Encode(rencode.K3Tree, band); err != nil {
		return err
	}
	var probe *rencode.K3Probe
	if d, err = timeCalls(9, func() (err error) { probe, err = rencode.ParseK3(k3); return err }); err != nil {
		return err
	}
	pl.set("rencode.k3_parse_us", "us", us(d))
	t0 = time.Now()
	for i := uint64(0); i < sfcCalls; i++ {
		if probe.ContainsID(i * stride % curve.Length()) {
			sink++
		}
	}
	pl.set("rencode.k3_contains_ns", "ns", float64(time.Since(t0))/sfcCalls)

	// What the band "index" costs on the device: bytes stored under
	// intensityBand per run of the band REGIONs (every stored copy counts).
	bandBytes, err := h.storedBandBytes()
	if err != nil {
		return err
	}
	var bandRuns int
	for _, id := range h.corp.Studies {
		for _, b := range sys.BandRegions[id] {
			bandRuns += b.Region.NumRuns()
		}
	}
	pl.set("rencode.stored_bytes_per_run", "B", ratio(float64(bandBytes), float64(bandRuns)))

	// lfm: a whole-field read and page-sized random reads, through
	// whatever cache the workload configured.
	rp := newReplayer(sys)
	volH, err := rp.handle(volumeHandleSQL, sdb.Int(int64(study)))
	if err != nil {
		return err
	}
	var volBytes []byte
	if d, err = timeCalls(5, func() (err error) { volBytes, err = sys.LFM.Read(volH); return err }); err != nil {
		return err
	}
	pl.set("lfm.read_mb_s", "MB/s", ratio(float64(len(volBytes))/1e6, d.Seconds()))
	const readAts = 256
	pages := uint64(len(volBytes)) / sys.LFM.PageSize()
	t0 = time.Now()
	for i := uint64(0); i < readAts; i++ {
		if _, err := sys.LFM.ReadAt(volH, (i*2654435761%pages)*sys.LFM.PageSize(), sys.LFM.PageSize()); err != nil {
			return err
		}
	}
	pl.set("lfm.readat_us_per_call", "us", us(time.Since(t0))/readAts)
	pl.set("lfm.pages_in_use", "pages", float64(h.pagesInUse()))

	// volume: in-memory extraction of the hemisphere.
	vol, err := volume.New(curve, volBytes)
	if err != nil {
		return err
	}
	if d, err = timeCalls(9, func() error { _, err := volume.Extract(vol, hemi.Region); return err }); err != nil {
		return err
	}
	pl.set("volume.extract_ns_per_voxel", "ns", ratio(float64(d), float64(hemi.Region.NumVoxels())))

	// transport: the CRC frame around half a VOLUME.
	body := volBytes[:len(volBytes)/2]
	kb := float64(len(body)) / 1024
	var frame []byte
	if d, err = timeCalls(9, func() (err error) { frame, err = transport.EncodeFrame(nil, body); return err }); err != nil {
		return err
	}
	pl.set("transport.frame_encode_ns_per_kb", "ns", ratio(float64(d), kb))
	if d, err = timeCalls(9, func() error { _, _, err := transport.DecodeFrame(frame); return err }); err != nil {
		return err
	}
	pl.set("transport.frame_decode_ns_per_kb", "ns", ratio(float64(d), kb))

	// sdb: parsing the mixed §3.4 statement, and how many rows the
	// executor examines per row it returns (EXPLAIN ANALYZE of the first
	// operation of each shape).
	if d, err = timeCalls(101, func() error { _, err := sdb.Parse(mixedDataSQL); return err }); err != nil {
		return err
	}
	pl.set("sdb.parse_us", "us", us(d))
	examined, returned, err := h.rowsExamined()
	if err != nil {
		return err
	}
	pl.set("sdb.rows_examined_per_row_returned", "ratio", ratio(examined, returned))
	_ = sink
	return nil
}

// storedBandBytes is the device size of every intensityBand REGION row.
func (h *harness) storedBandBytes() (uint64, error) {
	rows, err := h.sys.DB.Query(`select ib.region from intensityBand ib`)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var total uint64
	for rows.Next() {
		size, err := h.sys.LFM.Size(rows.Row()[0].L)
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, rows.Err()
}

// rowsExamined sums, over one representative operation per shape, the
// rows every operator took in and the rows the statement returned.
func (h *harness) rowsExamined() (examined, returned float64, err error) {
	seen := make(map[string]bool)
	for _, o := range h.ops {
		if seen[o.Shape] {
			continue
		}
		seen[o.Shape] = true
		spec := o.Spec
		if spec.StudyID == 0 {
			spec.StudyID = h.corp.Studies[0]
		}
		lines, err := h.sys.ExplainSpec(spec, true)
		if err != nil {
			return 0, 0, err
		}
		first := true
		for _, line := range lines {
			in, out, ok := explainCounts(line)
			if !ok {
				continue
			}
			examined += in
			if first {
				returned += out
				first = false
			}
		}
	}
	return examined, returned, nil
}

// explainCounts reads "[in=N out=M ..." off an EXPLAIN ANALYZE line.
func explainCounts(line string) (in, out float64, ok bool) {
	i := strings.Index(line, "[in=")
	if i < 0 {
		return 0, 0, false
	}
	fields := strings.Fields(strings.Trim(line[i:], "[]"))
	if len(fields) < 2 {
		return 0, 0, false
	}
	in, err1 := strconv.ParseFloat(strings.TrimPrefix(fields[0], "in="), 64)
	out, err2 := strconv.ParseFloat(strings.TrimPrefix(fields[1], "out="), 64)
	return in, out, err1 == nil && err2 == nil
}

// counterMetrics derives the per-layer metrics that are counter deltas
// over the untraced window, or cumulative counters of the run.
func (h *harness) counterMetrics(pl metricSet, w *window) {
	ops := float64(w.ops)
	queries := float64(w.total.queries)
	l, c := w.lfmDelta(), w.clientDelta()

	pl.set("lfm.pages_per_query", "pages", ratio(float64(l.PageReads), ops))
	pl.set("lfm.reads_per_query", "count", ratio(float64(l.Reads), ops))
	pl.set("lfm.bytes_read_per_query", "B", ratio(float64(l.BytesRead), ops))
	pl.set("lfm.cache_hit_rate", "ratio", l.CacheHitRate())
	pl.set("lfm.cache_evictions_per_query", "count", ratio(float64(l.CacheEvictions), ops))
	total := h.sys.LFM.Stats()
	pl.set("lfm.checksum_failures", "count", float64(total.ChecksumFailures))
	pl.set("lfm.faults_injected", "count", float64(total.FaultsInjected))

	pl.set("transport.bytes_out_per_query", "B", ratio(float64(c.BytesOut), ops))
	pl.set("transport.bytes_in_per_query", "B", ratio(float64(c.BytesIn), ops))
	pl.set("transport.messages_per_query", "count", ratio(float64(c.Messages), ops))
	pl.set("transport.wire_mb_s", "MB/s", 0)
	if h.dmn != nil {
		// Only the TCP flavor's Latency is wall time on the wire.
		pl.set("transport.wire_mb_s", "MB/s", ratio(float64(c.BytesOut+c.BytesIn)/1e6, c.Latency.Seconds()))
	}
	all := h.clientStats()
	pl.set("transport.client_errors", "count", float64(all.Errors))
	pl.set("transport.client_retries", "count", float64(all.Retries))
	var server transport.ServerStats
	if h.dmn != nil {
		server = h.dmn.Stats()
	}
	pl.set("transport.server_calls", "count", float64(server.Calls))
	pl.set("transport.server_errors", "count", float64(server.Errors))
	pl.set("transport.admission_rejected", "count", float64(server.AdmissionRejected))
	pl.set("transport.frame_errors", "count", float64(server.FrameErrors))
	pl.set("transport.conns_accepted", "count", float64(server.Accepted))
	// Server-observed, to read beside the client-observed latency_p50_ms.
	pl.set("transport.server_call_p50_us", "us",
		h.sys.Metrics.Histogram("transport_server_call_seconds", obs.LatencyBuckets).Quantile(0.5)*1e6)

	// Every query is one server request on every workload.
	requests := queries
	if h.workload == wlPopulationBatch {
		requests = queries - ops // a sweep's ConsistentBandRegion is not a request
	}
	pl.set("sdb.queries_per_request", "count", ratio(w.registryDelta("sdb_queries_total"), requests))
	pl.set("sdb.udf_calls_per_request", "count", ratio(w.registryDelta("sdb_udf_calls_total"), requests))
	pl.set("sdb.udf_probe_calls_per_request", "count", ratio(w.registryDelta("sdb_udf_probe_calls_total"), requests))
	pl.set("sdb.query_errors_total", "count", float64(w.after.registry["sdb_query_errors_total"]))
	pl.set("qbism.region_probe_per_query", "count", ratio(w.registryDelta("qbism_region_probe_total"), ops))
	pl.set("qbism.region_decode_per_query", "count", ratio(w.registryDelta("qbism_region_decode_total"), ops))
	pl.set("qbism.degraded_total", "count", float64(w.after.registry["qbism_degraded_total"]))
	pl.set("qbism.query_errors_total", "count", float64(w.after.registry["qbism_query_errors_total"]))
	pl.set("qbism.retries_total", "count", float64(w.after.registry["qbism_retries_total"]))
	pl.set("region.runs_per_result", "count", ratio(float64(w.total.runs), requests))

	// dx, as the program reports it per query (QueryTiming) on the
	// in-process workloads; the daemon workloads never import or render.
	pl.set("dx.import_us", "us", ratio(us(w.total.importDur), requests))
	pl.set("dx.import_ns_per_voxel", "ns", ratio(float64(w.total.importDur), float64(w.total.voxels)))
	pl.set("dx.render_ms", "ms", ratio(ms(w.total.renderDur), requests))
	pl.set("dx.render_ns_per_voxel", "ns", ratio(float64(w.total.renderDur), float64(w.total.voxels)))

	// The open loop's own numbers (0 away from bulk_open).
	for i, rate := range ladder {
		var r rung
		if i < len(w.ladder) {
			r = w.ladder[i]
		}
		pl.set(fmt.Sprintf("loadgen.p95_ms_r%d", int(rate)), "ms", r.p95())
		pl.set(fmt.Sprintf("loadgen.achieved_qps_r%d", int(rate)), "1/s", r.AchievedQPS)
	}
	var late []float64
	for _, r := range w.ladder {
		late = append(late, r.SendLateMs...)
	}
	pl.set("loadgen.send_late_p95_ms", "ms", percentile(late, 95))
}

// specWeights is how often each distinct spec occurs in the operation
// list — the weights that turn per-spec server timings into per-query
// means of the workload.
func (h *harness) specWeights() []float64 {
	count := make(map[specKey]float64)
	for _, o := range h.ops {
		if h.workload == wlPopulationBatch {
			for _, s := range sweepSpecs(h.corp, o) {
				count[keyOf(s)]++
			}
			continue
		}
		count[keyOf(o.Spec)]++
	}
	weights := make([]float64, len(h.specs))
	for i, s := range h.specs {
		weights[i] = count[keyOf(s)]
	}
	return weights
}

// serverView is the server side of one query, seen from outside: the
// weighted means of the paired transport call, the direct ServeRPC call
// and each replay stage, all in microseconds per query.
type serverView struct {
	call, serve float64
	serveAll    []float64 // unweighted, per distinct spec, for percentiles
	stages      map[string]float64
	band        map[string]float64 // ConsistentBandRegion's stages, per sweep
}

func (h *harness) serverView(server []span) serverView {
	weights := h.specWeights()
	v := serverView{stages: make(map[string]float64), band: make(map[string]float64)}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	roots := make(map[int]string) // replay root span id → kind
	for _, s := range server {
		if s.Name == "replay" || s.Name == "replay.band" {
			roots[s.ID] = s.Name
		}
	}
	bands := float64(len(h.corp.Bands))
	for _, s := range server {
		d := float64(s.End-s.Start) / 1e3
		switch {
		case s.Parent == 0 && s.Name == "transport.call":
			v.call += d * weights[s.Op] / wsum
		case s.Parent == 0 && s.Name == "qbism.serve_rpc":
			v.serve += d * weights[s.Op] / wsum
			v.serveAll = append(v.serveAll, d)
		case roots[s.Parent] == "replay":
			v.stages[s.Name] += d * weights[s.Op] / wsum
		case roots[s.Parent] == "replay.band":
			v.band[s.Name] += d / bands
		}
	}
	return v
}

func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// spanMetrics derives the per-layer metrics that are span durations.
func (h *harness) spanMetrics(pl metricSet, client, server []span, v serverView) {
	pl.set("transport.call_self_us", "us", max(0, v.call-v.serve))
	pl.set("qbism.serve_rpc_p50_us", "us", percentile(v.serveAll, 50))
	pl.set("qbism.serve_rpc_p95_us", "us", percentile(v.serveAll, 95))
	pl.set("qbism.serve_unattributed_frac", "ratio", ratio(max(0, v.serve-sum(v.stages)), v.serve))
	pl.set("sdb.metadata_query_us", "us", v.stages["sdb.metadata_query"])
	pl.set("sdb.data_query_us", "us", v.stages["sdb.data_query"])

	pl.set("qbism.encode_request_us", "us", us(spanMean(client, "qbism.encode_request")))
	pl.set("qbism.decode_response_us", "us", us(spanMean(client, "qbism.decode_response")))

	// Per-MB and per-voxel rates over every span of the kind.
	var marshalNs, extractNs float64
	for _, s := range server {
		switch s.Name {
		case "qbism.marshal":
			marshalNs += float64(s.End - s.Start)
		case "qbism.extract_stored":
			extractNs += float64(s.End - s.Start)
		}
	}
	var blobBytes, extractVoxels float64
	for _, s := range h.specs {
		e := h.expect[keyOf(s)]
		blobBytes += float64(e.blob)
		if !s.FullStudy {
			extractVoxels += float64(e.voxels)
		}
	}
	pl.set("qbism.marshal_us_per_mb", "us", ratio(marshalNs/1e3, blobBytes/1e6))
	pl.set("qbism.extract_stored_ns_per_voxel", "ns", ratio(extractNs, extractVoxels))
	var unmarshalNs float64
	var unmarshalled int
	for _, s := range client {
		if s.Name == "qbism.unmarshal" {
			unmarshalNs += float64(s.End - s.Start)
			unmarshalled++
		}
	}
	// Traced passes walk the whole list, so the mean reply is the list's.
	var meanBlob float64
	for _, o := range h.ops {
		meanBlob += float64(h.expect[keyOf(o.Spec)].blob) / float64(len(h.ops))
	}
	pl.set("qbism.unmarshal_us_per_mb", "us", ratio(unmarshalNs/1e3, float64(unmarshalled)*meanBlob/1e6))
	if _, ok := pl["qbism.batch_speedup"]; !ok {
		pl.set("qbism.batch_speedup", "ratio", 0)
	}
}

// selfTimeTable is the per-layer table of one operation's time: the
// client chain's self times from the traced passes, with the span that
// contains the server's work (transport.call, or the executor on
// population_batch) split into the replay's stages, what the replay
// could not see, and the transport's own remainder.
func (h *harness) selfTimeTable(client []span, v serverView, tw *window) []selfRow {
	perOp, calls := selfPerOp(client, tw.ops)
	queriesPerOp := 1.0
	container := "transport.call"
	if h.workload == wlPopulationBatch {
		queriesPerOp = float64(len(h.corp.Studies))
		container = "qbism.run_queries"
		// RunQuery's client half, as QueryTiming reports it.
		perOp["dx.import"] = ratio(us(tw.total.importDur), float64(tw.ops))
		perOp["dx.render"] = ratio(us(tw.total.renderDur), float64(tw.ops))
		perOp[container] -= perOp["dx.import"] + perOp["dx.render"]
		for name, d := range v.band {
			perOp[name] += d
			perOp["qbism.consistent_band_region"] -= d
		}
	}
	for name, d := range v.stages {
		perOp[name] += d * queriesPerOp
	}
	perOp["qbism.serve_unattributed"] = max(0, v.serve-sum(v.stages)) * queriesPerOp
	perOp[container] -= v.serve * queriesPerOp

	for name, d := range perOp {
		if d < 0 {
			perOp[name] = 0 // noise: a container measured shorter than its parts
		}
	}
	return tableRows(perOp, calls)
}
