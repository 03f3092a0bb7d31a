package qbism

// Sharded execution: the study corpus partitioned across K shards,
// each a (primary, replica...) set of Nodes — bare MedicalServers, each
// behind its own simulated link, whose transport the cluster reads.
// One Client, the kind the single-node System embeds, fronts them all
// through the same cluster read — there a cluster of one node — so a
// query runs, batches and finishes identically whether it was fetched
// over one link or scatter-gathered across a degraded cluster, and so
// does the population call (Client.ConsistentBandRegion); this file adds
// only the routing table.
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
	"qbism/internal/transport"
)

// ClusterConfig parameterizes a ClusterSystem.
type ClusterConfig struct {
	// Shards is the partition count K (default 2).
	Shards int
	// Replicas is the number of replicas per shard beyond the primary:
	// 0 means none, every shard its primary alone; 1 makes each shard a
	// primary/replica pair.
	Replicas int
	// Base configures every node: corpus, wire codec, cache, faults.
	// Base.OnlyStudies is overwritten per node with the shard's subset;
	// Base.DeviceFaults applies to every node unless NodeFaults overrides
	// it. Base.Trace traces the front end. Its retries are the WithRetry
	// option; a batch's pool size is the workers argument of the call.
	Base Config
	// NodeFaults, when non-nil, returns the given node's link and device
	// fault policies (replica 0 is the primary); nil means no injection.
	// The device's overrides Base.DeviceFaults.
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
	return c
}

// ClusterSystem is a sharded QBISM deployment: K shards of replicated
// nodes behind one front end. Its query surface is the Client's —
// RunQuery, and RunQueries and ConsistentBandRegion with the partial
// they return — with the routing table in front.
type ClusterSystem struct {
	// Client is the DX half, the same one a System embeds; its Cluster
	// holds the shards and its routing table the studies' keys.
	*Client

	// Nodes holds the per-shard nodes: Nodes[shard][0] is the primary,
	// the rest replicas.
	Nodes [][]*Node

	// Studies is the global corpus view (every study, regardless of
	// shard), in load order.
	Studies []StudyInfo
}

// Close releases every node the cluster built (Node.Close). It also works
// on a partially built cluster, which is how NewClusterSystem unwinds.
func (cs *ClusterSystem) Close() error {
	var errs []error
	for _, replicas := range cs.Nodes {
		for _, n := range replicas {
			errs = append(errs, n.Close())
		}
	}
	return errors.Join(errs...)
}

// NewClusterSystem enumerates the corpus, partitions it by
// (patient, study) key, and builds one Node per (shard, replica), each
// loading only its shard's studies, and one Client in front of them.
func NewClusterSystem(cfg ClusterConfig, opts ...Option) (*ClusterSystem, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("qbism: %d replicas per shard", cfg.Replicas)
	}

	// The routing table is derived from the corpus's IDs alone, before
	// any node exists.
	part := cluster.NewPartitioner(cfg.Shards)
	cs := &ClusterSystem{Studies: medserver.Corpus(cfg.Base), Nodes: make([][]*Node, cfg.Shards)}
	routes := make(map[int]cluster.Key)
	perShard := make([][]int, cfg.Shards)
	for _, info := range cs.Studies {
		key := cluster.Key{Patient: info.PatientID, Study: info.StudyID}
		sh := part.Shard(key)
		routes[info.StudyID] = key
		perShard[sh] = append(perShard[sh], info.StudyID)
	}

	shardNodes := make([][]transport.Transport, cfg.Shards)
	for sh := range cs.Nodes {
		for r := 0; r <= cfg.Replicas; r++ {
			nodeCfg := cfg.Base
			// The shard's subset — always non-nil, so an empty shard
			// loads nothing rather than everything.
			nodeCfg.OnlyStudies = append([]int{}, perShard[sh]...)
			var link *faultsim.Policy
			if cfg.NodeFaults != nil {
				link, nodeCfg.DeviceFaults = cfg.NodeFaults(sh, r)
			}
			n, err := newNode(nodeCfg)
			if err != nil {
				cs.Close()
				return nil, fmt.Errorf("qbism: cluster node s%dr%d: %w", sh, r, err)
			}
			if link != nil {
				n.Transport.SetFaults(faultsim.New(*link))
			}
			cs.Nodes[sh] = append(cs.Nodes[sh], n)
			shardNodes[sh] = append(shardNodes[sh], n.Transport)
		}
	}

	cs.Client = newClient(cfg.Base, collectOptions(opts), obs.NewRegistry(), cluster.Config{Breaker: cfg.Breaker, HedgeAfter: cfg.HedgeAfter}, shardNodes)
	cs.routes = routes
	return cs, nil
}

// Route returns the shard a study's queries are served by.
func (cs *ClusterSystem) Route(studyID int) (shard int, ok bool) {
	key, ok := cs.routes[studyID]
	if !ok {
		return 0, false
	}
	return cs.Cluster.Partitioner().Shard(key), true
}
