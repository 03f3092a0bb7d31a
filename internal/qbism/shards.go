package qbism

// Sharded execution: the study corpus partitioned across K shards,
// each a (primary, replica...) set of Nodes — bare MedicalServers, each
// behind its own simulated link — behind the cluster package's Node seam.
// One Client, the kind the single-node System embeds, fronts them all
// through the same cluster read — there a cluster of one node — so a
// query runs, batches and finishes identically whether it was fetched
// over one link or scatter-gathered across a degraded cluster; this file
// adds only the routing table and the population call, which reads every
// study's band REGION but runs no DX stage.
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
	"qbism/internal/par"
	"qbism/internal/region"
	"qbism/internal/rencode"
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
	// Base configures every node: corpus, wire codec, checksums, device.
	// Base.OnlyStudies is overwritten per node with the shard's subset;
	// Base.DeviceFaults applies to every node unless NodeFaults overrides
	// it. Base.Trace traces the front end. Its scatter-gather pool is the
	// WithWorkers option, its retries the WithRetry option.
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

	shardNodes := make([][]cluster.Node, cfg.Shards)
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
			shardNodes[sh] = append(shardNodes[sh], &transportNode{name: nodeName(sh, r), t: n.Transport})
		}
	}

	cs.Client = newClient(cfg.Base, collectOptions(opts), obs.NewRegistry(), cluster.Config{Breaker: cfg.Breaker, HedgeAfter: cfg.HedgeAfter}, shardNodes)
	cs.routes = routes
	return cs, nil
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
	partial := cs.Cluster.BuildPartial(batch, len(out), func(i int) (cluster.Key, error) {
		return cs.routes[out[i].Spec.StudyID], out[i].Err
	})
	return out, partial, batch
}

// ConsistentBandRegion computes the population answer — the REGION
// where every listed study has intensities in [bandLo, bandHi]. It reads
// each study's band through the one cluster read (routing, retries,
// failover, hedging) on the batch pool, decodes each reply's REGION and
// folds them with region.IntersectN. Like the server's call, it does no
// DX work: nothing is imported, rendered, cached, slow-logged or counted
// as a query; a trace is one "population" span over the reads.
//
// When shards are lost past retries, the intersection covers the
// surviving studies only and the PartialResult names what is missing;
// err is non-nil only for terminal failures (the first in study order)
// or when no study survived.
func (cs *ClusterSystem) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, *cluster.PartialResult, error) {
	if len(studies) == 0 {
		return nil, nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	if workers <= 0 {
		workers = cs.workers
	}
	root := cs.Tracer.Start("population")
	defer root.End()
	regions := make([]*region.Region, len(studies))
	errs := make([]error, len(studies))
	par.Each(len(studies), workers, func(i int) {
		regions[i], errs[i] = cs.bandRegion(root, QuerySpec{
			StudyID: studies[i], Atlas: "Talairach",
			HasBand: true, BandLo: bandLo, BandHi: bandHi, Encoding: encoding,
		})
	})
	partial := cs.Cluster.BuildPartial(root, len(studies), func(i int) (cluster.Key, error) {
		return cs.routes[studies[i]], errs[i]
	})
	kept := regions[:0]
	for i, err := range errs {
		switch {
		case err == nil:
			kept = append(kept, regions[i])
		case errors.Is(err, cluster.ErrShardUnavailable):
			// Accounted in partial; the intersection degrades gracefully.
		default:
			return nil, partial, fmt.Errorf("qbism: study %d band [%d,%d]: %w", studies[i], bandLo, bandHi, err)
		}
	}
	if len(kept) == 0 {
		return nil, partial, fmt.Errorf("qbism: all %d studies lost: %w", len(studies), cluster.ErrShardUnavailable)
	}
	out, err := region.IntersectN(kept...)
	return out, partial, err
}

// bandRegion reads one study's band REGION: the band request through
// fetch, and its reply's REGION decoded. A band query's DataRegion
// carries exactly the band REGION (Extract preserves the query region).
func (cs *ClusterSystem) bandRegion(root *obs.Span, spec QuerySpec) (*region.Region, error) {
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		return nil, err
	}
	f, err := cs.fetch(root, spec, request)
	if err != nil {
		return nil, err
	}
	enc, _, err := medserver.SplitDataRegion(f.blob)
	if err != nil {
		return nil, err
	}
	return rencode.Decode(enc)
}
