package qbism

// Sharded execution: the study corpus partitioned across K shards,
// each a (primary, replica...) set of full QBISM nodes — its own LFM
// device, database, and netsim link — behind the cluster package's
// Node seam. The DX half of a query is the same Client the single-node
// System embeds, fetching through the same cluster read — there a
// cluster of one node — so a query runs, batches and finishes
// identically whether it was fetched over one link or scatter-gathered
// across a degraded cluster; this file adds only the routing table, the
// node adapter, and the partial-result accounting.
//
// Determinism: every node synthesizes its shard of the corpus from the
// same global (ID, seed) enumeration (Config.OnlyStudies), so a shard's
// replicas — and the same studies in an unsharded system — hold
// byte-identical REGIONs. Replica failover therefore returns
// byte-identical answers, and the degraded-shard chaos suite can assert
// exact equality against an unsharded control system.

import (
	"errors"
	"fmt"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/faultsim"
	"qbism/internal/medserver"
	"qbism/internal/obs"
	"qbism/internal/region"
)

// ClusterConfig parameterizes a ClusterSystem.
type ClusterConfig struct {
	// Shards is the partition count K (default 2).
	Shards int
	// Replicas is the number of replicas per shard beyond the primary.
	// Zero means the default of 1 (each shard is a primary/replica
	// pair); a negative value means no replicas, every shard its primary
	// alone.
	Replicas int
	// Base configures every node: corpus, encoding, checksums, device.
	// Base.OnlyStudies is overwritten per node with the shard's subset;
	// Base.LinkFaults/DeviceFaults apply to every node unless NodeFaults
	// overrides them. Base.Retry governs the front end's reads as it does
	// a single server's: MaxAttempts bounds the node calls per read across
	// the shard's nodes and Backoff/Seed drive the deterministic jittered
	// waits. Base.Workers bounds the scatter-gather worker pool.
	Base Config
	// NodeFaults, when non-nil, returns the fault policies for the
	// given node (replica 0 is the primary); nil return values mean no
	// injection on that node. Overrides Base.LinkFaults/DeviceFaults.
	NodeFaults func(shard, replica int) (link, device *faultsim.Policy)
	// Breaker configures each node's circuit breaker (zero disables).
	Breaker cluster.BreakerConfig
	// HedgeAfter enables hedged reads once a node's simulated-latency
	// EWMA reaches it (zero disables).
	HedgeAfter time.Duration
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
	return c
}

// ClusterSystem is a sharded QBISM deployment: K shards of replicated
// nodes behind one front end. It exposes the same query surface as
// System — RunQuery, RunQueries, ConsistentBandRegion — with routing,
// failover, and partial-result semantics layered in.
type ClusterSystem struct {
	// Client is the DX half, the same one a System embeds; its Cluster
	// holds the shards and its routing table the studies' keys.
	*Client

	Cfg ClusterConfig
	// Nodes holds the per-shard node systems: Nodes[shard][0] is the
	// primary, the rest replicas.
	Nodes [][]*System

	// Studies is the global corpus view (every study, regardless of
	// shard), in load order.
	Studies []StudyInfo
}

// Close releases every node System the cluster built — its transport,
// the one the cluster calls it through, and its long-field manager. It
// also works on a partially constructed cluster, which is how
// NewClusterSystem unwinds its error paths.
func (cs *ClusterSystem) Close() error {
	var first error
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
	base := cfg.Base

	// The routing table is derived from the corpus's IDs alone, before
	// any node exists.
	part := cluster.NewPartitioner(cfg.Shards)
	cs := &ClusterSystem{Cfg: cfg, Studies: medserver.Corpus(base)}
	routes := make(map[int]cluster.Key)
	perShard := make([][]int, cfg.Shards)
	for _, info := range cs.Studies {
		key := cluster.Key{Patient: info.PatientID, Study: info.StudyID}
		sh := part.Shard(key)
		routes[info.StudyID] = key
		perShard[sh] = append(perShard[sh], info.StudyID)
	}

	var shardNodes [][]cluster.Node
	for sh := 0; sh < cfg.Shards; sh++ {
		var nodes []cluster.Node
		for r := 0; r <= cfg.Replicas; r++ {
			nodeCfg := base
			// The shard's subset — always non-nil, so an empty shard
			// loads nothing rather than everything.
			nodeCfg.OnlyStudies = append([]int{}, perShard[sh]...)
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
			nodes = append(nodes, &transportNode{name: nodeName(sh, r), t: sys.Transport})
		}
		shardNodes = append(shardNodes, nodes)
	}

	client, err := newClient(base, obs.NewRegistry(), cluster.Config{Breaker: cfg.Breaker, HedgeAfter: cfg.HedgeAfter}, shardNodes)
	if err != nil {
		cs.Close()
		return nil, err
	}
	client.routes = routes
	cs.Client = client
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

// Route returns the shard a study's queries are served by.
func (cs *ClusterSystem) Route(studyID int) (shard int, ok bool) {
	key, ok := cs.routes[studyID]
	if !ok {
		return 0, false
	}
	return cs.Cluster.Partitioner().Shard(key), true
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
	out, batch := cs.runBatch(specs, workers)
	defer batch.End()
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
