package qbism

// Sharded execution: the study corpus partitioned across K shards,
// each a (primary, replica...) set of full QBISM nodes — its own LFM
// device, database, and netsim link — behind the cluster package's
// Node seam. The front end (DX cache, cost model, observability) is
// shared with the single-node System via frontEnd, so a query finishes
// identically whether it was fetched over one link or scatter-gathered
// across a degraded cluster.
//
// Determinism: every node synthesizes its shard of the corpus from the
// same global (ID, seed) enumeration (Config.OnlyStudies), so a shard's
// replicas — and the same studies in an unsharded system — hold
// byte-identical REGIONs. Replica failover therefore returns
// byte-identical answers, and the degraded-shard chaos suite can assert
// exact equality against an unsharded control system.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/costmodel"
	"qbism/internal/dx"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/region"
	"qbism/internal/spindex"
	"qbism/internal/synth"
	"qbism/internal/transport"
)

// ClusterConfig parameterizes a ClusterSystem.
type ClusterConfig struct {
	// Shards is the partition count K (default 2).
	Shards int
	// Replicas is the number of replicas per shard beyond the primary
	// (default 1, i.e. each shard is a primary/replica pair).
	Replicas int
	// Base configures every node: corpus, encoding, checksums, device.
	// Base.OnlyStudies is overwritten per node with the shard's subset;
	// Base.LinkFaults/DeviceFaults apply to every node unless NodeFaults
	// overrides them.
	Base Config
	// NodeFaults, when non-nil, returns the fault policies for the
	// given node (replica 0 is the primary); nil return values mean no
	// injection on that node. Overrides Base.LinkFaults/DeviceFaults.
	NodeFaults func(shard, replica int) (link, device *faultsim.Policy)
	// NodeDial, when non-nil, builds the cluster's transport to the
	// given node (the node's fully built System is passed in). Nil
	// means each node is reached through its own default transport —
	// the simulated link, exactly the pre-seam wiring. A custom dial
	// lets a cluster front real daemons without the routing, breaker,
	// or hedging layers changing.
	NodeDial func(shard, replica int, sys *System) (transport.Transport, error)
	// Breaker configures each node's circuit breaker (zero disables).
	Breaker cluster.BreakerConfig
	// Retry governs cross-node failover retries: MaxAttempts bounds the
	// node calls per read and Backoff/Seed drive the deterministic
	// jittered waits — the exact schedule PR 1 established for
	// single-link retries, reused at the cluster seam.
	Retry RetryPolicy
	// HedgeAfter enables hedged reads once a node's simulated-latency
	// EWMA reaches it (zero disables).
	HedgeAfter time.Duration
	// Workers bounds the scatter-gather worker pool (default
	// Base.Workers).
	Workers int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	} else if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Base.Workers
	}
	return c
}

// ClusterSystem is a sharded QBISM deployment: K shards of replicated
// nodes behind one front end. It exposes the same query surface as
// System — RunQuery, RunQueries, ConsistentBandRegion — with routing,
// failover, and partial-result semantics layered in.
type ClusterSystem struct {
	Cfg     ClusterConfig
	Cluster *cluster.Cluster
	// Nodes holds the per-shard node systems: Nodes[shard][0] is the
	// primary, the rest replicas.
	Nodes [][]*System

	// Studies is the global corpus view (every study, regardless of
	// shard), in load order.
	Studies []StudyInfo

	Model   costmodel.Model
	Cache   *dx.Cache
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	SlowLog *obs.SlowLog

	routes map[int]cluster.Key // studyID -> routing key
	// tnodes flattens every transportNode handed to the cluster, so
	// Close can release dialed transports the cluster layer holds.
	tnodes []*transportNode
}

// Close releases every node the cluster built: each replica's dialed
// transport and each node System (its own transport and long-field
// manager). All underlying closes are idempotent, so the overlap
// between a node's transport and its System is harmless. Close also
// works on a partially constructed cluster, which is how
// NewClusterSystem unwinds its error paths.
func (cs *ClusterSystem) Close() error {
	var first error
	for _, n := range cs.tnodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, replicas := range cs.Nodes {
		for _, sys := range replicas {
			if err := sys.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// NewClusterSystem enumerates the corpus, partitions it by
// (patient, study) key, and builds one full System per node, each
// loading only its shard's studies.
func NewClusterSystem(cfg ClusterConfig) (*ClusterSystem, error) {
	cfg = cfg.withDefaults()
	base := cfg.Base.withDefaults()

	// Enumerate the global corpus exactly as studyPlans will: the
	// routing table is derived from IDs alone, before any node exists.
	part := cluster.NewPartitioner(cfg.Shards)
	cs := &ClusterSystem{
		Cfg:    cfg,
		routes: make(map[int]cluster.Key),
	}
	perShard := make([][]int, cfg.Shards)
	for i := 0; i < base.NumPET+base.NumMRI; i++ {
		info := StudyInfo{StudyID: i + 1, PatientID: i + 1, Modality: modalityFor(base, i)}
		key := cluster.Key{Patient: info.PatientID, Study: info.StudyID}
		sh := part.Shard(key)
		cs.routes[info.StudyID] = key
		perShard[sh] = append(perShard[sh], info.StudyID)
		cs.Studies = append(cs.Studies, info)
	}

	pol := cfg.Retry.WithDefaults()
	var shardNodes [][]cluster.Node
	for sh := 0; sh < cfg.Shards; sh++ {
		var nodes []cluster.Node
		for r := 0; r <= cfg.Replicas; r++ {
			nodeCfg := base
			// The shard's subset — always non-nil, so an empty shard
			// loads nothing rather than everything.
			nodeCfg.OnlyStudies = append([]int{}, perShard[sh]...)
			// The cluster owns retries and failover; each node link
			// answers exactly once per dial.
			nodeCfg.Retry = RetryPolicy{MaxAttempts: 1}
			// Node-level tracing is off: spans hang off the front end's
			// tracer through the parent span threaded into each call.
			nodeCfg.Trace = false
			nodeCfg.SlowLogThreshold = 0
			if cfg.NodeFaults != nil {
				nodeCfg.LinkFaults, nodeCfg.DeviceFaults = cfg.NodeFaults(sh, r)
			}
			sys, err := New(nodeCfg)
			if err != nil {
				cs.Close()
				return nil, fmt.Errorf("qbism: cluster node s%dr%d: %w", sh, r, err)
			}
			cs.addNode(sh, sys)
			tr := sys.Transport
			if cfg.NodeDial != nil {
				if tr, err = cfg.NodeDial(sh, r, sys); err != nil {
					cs.Close()
					return nil, fmt.Errorf("qbism: dialing node s%dr%d: %w", sh, r, err)
				}
			}
			tn := &transportNode{name: nodeName(sh, r), t: tr}
			cs.tnodes = append(cs.tnodes, tn)
			nodes = append(nodes, tn)
		}
		shardNodes = append(shardNodes, nodes)
	}

	cs.Metrics = obs.NewRegistry()
	cs.Model = costmodel.Default1993()
	cs.Cache = dx.NewCache(8)
	if base.Trace {
		cs.Tracer = obs.NewTracer()
		if base.SlowLogThreshold > 0 {
			cs.SlowLog = obs.NewSlowLog(base.SlowLogCapacity)
		}
	}

	cl, err := cluster.New(cluster.Config{
		Breaker:     cfg.Breaker,
		MaxAttempts: pol.MaxAttempts,
		Backoff:     pol.Backoff,
		JitterSeed:  pol.Seed,
		Retryable:   RetryableError,
		HedgeAfter:  cfg.HedgeAfter,
		Metrics:     cs.Metrics,
	}, shardNodes)
	if err != nil {
		cs.Close()
		return nil, err
	}
	cs.Cluster = cl
	return cs, nil
}

func (cs *ClusterSystem) addNode(shard int, sys *System) {
	for len(cs.Nodes) <= shard {
		cs.Nodes = append(cs.Nodes, nil)
	}
	cs.Nodes[shard] = append(cs.Nodes[shard], sys)
}

// nodeName follows the s<shard>p / s<shard>r<i> convention.
func nodeName(shard, replica int) string {
	if replica == 0 {
		return fmt.Sprintf("s%dp", shard)
	}
	return fmt.Sprintf("s%dr%d", shard, replica)
}

// modalityFor is the corpus's modality assignment, shared with studyPlans.
func modalityFor(cfg Config, i int) synth.Modality {
	if i >= cfg.NumPET {
		return synth.MRI
	}
	return synth.PET
}

// Route returns the shard a study's queries are served by.
func (cs *ClusterSystem) Route(studyID int) (shard int, ok bool) {
	key, ok := cs.routes[studyID]
	if !ok {
		return 0, false
	}
	return cs.Cluster.Partitioner().Shard(key), true
}

// fe returns the cluster's shared front end.
func (cs *ClusterSystem) fe() frontEnd {
	return frontEnd{
		cache:      cs.Cache,
		model:      cs.Model,
		metrics:    cs.Metrics,
		slowLog:    cs.SlowLog,
		slowThresh: cs.Cfg.Base.SlowLogThreshold,
	}
}

// transportNode adapts one node's Transport to the cluster.Node seam:
// the cluster no longer knows whether a node is a simulated link or a
// live daemon — it consumes the seam's Stats.Latency deltas either
// way. Each call is serialized per node so the stats delta pricing the
// call's latency is exact; different nodes still serve concurrently.
// (For the default sim transport the delta is numerically identical to
// what the pre-seam linkNode computed by hand from link stats.)
type transportNode struct {
	name string
	t    transport.Transport
	mu   sync.Mutex
}

func (n *transportNode) Name() string { return n.name }

// Close releases the node's transport. The sim flavors make this a
// no-op; a dialed TCP transport drops its socket.
func (n *transportNode) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.t == nil {
		return nil
	}
	return n.t.Close()
}

// Call dials the node's transport once and validates the response
// frame, so a reply corrupted in flight surfaces here as a typed
// retryable error — failover fodder — rather than downstream in the
// DX import.
func (n *transportNode) Call(parent *obs.Span, method string, request []byte) ([]byte, time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	net0 := n.t.Stats()
	resp, err := n.t.Call(parent, method, request)
	lat := n.t.Stats().Sub(net0).Latency
	if err != nil {
		return nil, lat, err
	}
	if _, _, err := splitResponse(resp); err != nil {
		return nil, lat, err
	}
	return resp, lat, nil
}

// RunQuery executes one query end to end through the cluster: route by
// (patient, study) key, read with failover/hedging, then finish through
// the shared front end. The result's Shard field reports how the read
// was served.
func (cs *ClusterSystem) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return cs.runQuerySpan(nil, spec)
}

func (cs *ClusterSystem) runQuerySpan(parent *obs.Span, spec QuerySpec) (*QueryResult, error) {
	cs.Cache.Flush() // same measurement protocol as System.RunQuery
	totalStart := time.Now()

	var root *obs.Span
	if parent != nil {
		root = parent.Child("query")
	} else {
		root = cs.Tracer.Start("query")
	}
	if root != nil {
		root.SetStr("spec", spec.Label())
	}

	key, ok := cs.routes[spec.StudyID]
	if !ok {
		// Unroutable: terminal, not a shard health problem.
		return nil, cs.fe().fail(root, RetryStats{Attempts: 1},
			fmt.Errorf("qbism: no study %d in the cluster corpus", spec.StudyID))
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, cs.fe().fail(root, RetryStats{}, err)
	}
	request := encodeFrame(specJSON, nil)

	resp, info, err := cs.Cluster.Read(root, key, medicalQueryMethod, request)
	retry := RetryStats{Attempts: info.Attempts, Retries: info.Retries, BackoffSim: info.BackoffSim}
	if err != nil {
		retry.LastError = err.Error()
		return nil, cs.fe().fail(root, retry, fmt.Errorf("qbism: query failed: %w", err))
	}
	meta, blob, err := splitResponse(resp)
	if err != nil {
		// Unreachable in practice: the winning node already validated
		// the frame. Kept for defense in depth.
		return nil, cs.fe().fail(root, retry, err)
	}
	// One successful exchange = 2 messages; the read's simulated
	// latency already prices the winning call's network model time,
	// injected latency, and call quantum.
	res, err := cs.fe().finish(root, spec, string(specJSON), meta, blob, retry, 2, info.LatencySim, totalStart)
	if res != nil {
		shardInfo := info
		res.Shard = &shardInfo
	}
	return res, err
}

// RunQueries scatter-gathers the specs across the cluster over a
// bounded worker pool, returning one BatchItem per spec in input order
// plus the batch's PartialResult: nil when every shard answered,
// otherwise the typed meta naming each shard lost past retries and the
// keys that went unanswered with it. Items lost to a dead shard carry
// a cluster.ErrShardUnavailable error; the surviving items' results
// are complete and exact — graceful degradation, never a silent wrong
// answer.
func (cs *ClusterSystem) RunQueries(specs []QuerySpec, workers int) ([]BatchItem, *cluster.PartialResult) {
	items, partial, _ := cs.RunQueriesTraced(specs, workers)
	return items, partial
}

// RunQueriesTraced is RunQueries plus the batch's root span (nil when
// tracing is off).
func (cs *ClusterSystem) RunQueriesTraced(specs []QuerySpec, workers int) ([]BatchItem, *cluster.PartialResult, *obs.Span) {
	if workers <= 0 {
		workers = cs.Cfg.Workers
	}
	batch := cs.Tracer.Start("batch")
	batch.SetInt("queries", int64(len(specs)))
	batch.SetInt("workers", int64(workers))
	defer batch.End()

	out := make([]BatchItem, len(specs))
	for i, spec := range specs {
		out[i].Spec = spec
	}
	run := func(i int) {
		out[i].Res, out[i].Err = cs.runQuerySpan(batch, out[i].Spec)
	}
	if workers <= 1 || len(specs) <= 1 {
		for i := range specs {
			run(i)
		}
	} else {
		if workers > len(specs) {
			workers = len(specs)
		}
		work := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range work {
					run(i)
				}
			}()
		}
		for i := range specs {
			work <- i
		}
		close(work)
		wg.Wait()
	}

	partial := cs.buildPartial(out)
	if partial != nil {
		cs.Metrics.Counter("cluster_partial_total").Inc()
		cs.Metrics.Counter("cluster_lost_queries_total").Add(int64(partial.LostKeys()))
		batch.SetStr("partial", partial.String())
	}
	return out, partial, batch
}

// buildPartial folds a batch's shard-unavailable failures into the
// typed PartialResult meta.
func (cs *ClusterSystem) buildPartial(items []BatchItem) *cluster.PartialResult {
	keys := make([]cluster.Key, len(items))
	shards := make([]int, len(items))
	errs := make([]error, len(items))
	for i, item := range items {
		errs[i] = item.Err
		key, ok := cs.routes[item.Spec.StudyID]
		if !ok {
			continue // unroutable items are plain errors, not lost shards
		}
		keys[i] = key
		shards[i] = cs.Cluster.Partitioner().Shard(key)
	}
	return cluster.BuildPartial(cs.Cluster.Shards(), keys, shards, errs)
}

// ConsistentBandRegion computes the population answer — the REGION
// where every listed study has intensities in [bandLo, bandHi] — by
// scatter-gathering per-study band queries across the cluster. When
// shards are lost past retries, the intersection covers the surviving
// studies only and the PartialResult names what is missing; err is
// non-nil only for terminal failures or when no study survived.
func (cs *ClusterSystem) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, *cluster.PartialResult, error) {
	if len(studies) == 0 {
		return nil, nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	specs := make([]QuerySpec, len(studies))
	for i, id := range studies {
		specs[i] = QuerySpec{
			StudyID: id, Atlas: "Talairach",
			HasBand: true, BandLo: bandLo, BandHi: bandHi, Encoding: encoding,
		}
	}
	items, partial := cs.RunQueries(specs, workers)
	var regions []*region.Region
	for _, item := range items {
		switch {
		case item.Err == nil:
			// A band query's DataRegion carries exactly the band REGION
			// (Extract preserves the query region).
			regions = append(regions, item.Res.Data.Region)
		case errors.Is(item.Err, cluster.ErrShardUnavailable):
			// Accounted in partial; the intersection degrades gracefully.
		default:
			return nil, partial, fmt.Errorf("qbism: study %d band [%d,%d]: %w",
				item.Spec.StudyID, bandLo, bandHi, item.Err)
		}
	}
	if len(regions) == 0 {
		return nil, partial, fmt.Errorf("qbism: all %d studies lost: %w", len(studies), cluster.ErrShardUnavailable)
	}
	out, err := region.IntersectN(regions...)
	return out, partial, err
}

// BuildActivityIndex builds the population activity index across every
// shard's primary, merging the per-node band REGIONs (each node holds
// only its shard of the corpus) into one R-tree. Studies are visited
// in ascending ID order so R-tree construction is deterministic.
func (cs *ClusterSystem) BuildActivityIndex(minIntensity uint8) (*ActivityIndex, error) {
	idx := &ActivityIndex{
		tree:    spindex.New(),
		entries: make(map[int64]ActivityEntry),
	}
	next := int64(1)
	var ids []int
	byStudy := make(map[int]*System)
	for _, nodes := range cs.Nodes {
		primary := nodes[0]
		for studyID := range primary.BandRegions {
			ids = append(ids, studyID)
			byStudy[studyID] = primary
		}
	}
	sort.Ints(ids)
	for _, studyID := range ids {
		for _, b := range byStudy[studyID].BandRegions[studyID] {
			if b.Lo < minIntensity || b.Region.Empty() {
				continue
			}
			min, max, ok := b.Region.Bounds()
			if !ok {
				continue
			}
			id := next
			next++
			idx.entries[id] = ActivityEntry{
				StudyID: studyID, BandLo: b.Lo, BandHi: b.Hi, Voxels: b.Region.NumVoxels(),
			}
			if err := idx.tree.Insert(spindex.Entry{
				ID: id,
				Box: spindex.Box3{
					MinX: min.X, MinY: min.Y, MinZ: min.Z,
					MaxX: max.X, MaxY: max.Y, MaxZ: max.Z,
				},
			}); err != nil {
				return nil, err
			}
		}
	}
	return idx, nil
}
