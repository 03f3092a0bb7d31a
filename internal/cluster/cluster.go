// Package cluster partitions a study corpus across K shards, each a
// (primary, replica...) set of nodes, and executes reads with
// failover, circuit breaking, and hedging — all on a deterministic
// simulated clock so chaos runs replay byte-for-byte from a seed.
//
// The package is deliberately generic: a node is a transport.Transport
// (a simulated link or TCP to a server, or a test fake), named by its
// position alone. Each exchange returns its own bill — the
// transport.Stats of that one call, failed ones included — whose
// Latency drives the cluster's clock, EWMA tracking and hedging, and
// which a read sums into ReadInfo.Net. Nothing in the cluster
// serializes calls to one node. Routing is by (patient, study) key so
// a study's queries always land on the same shard regardless of which
// front end issues them.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// Key routes a query: every (patient, study) pair maps to exactly one
// shard, so a study's rows are always served by the same node set.
type Key struct {
	Patient int
	Study   int
}

// Hash is a stable FNV-1a over the key's 16-byte little-endian
// encoding, finished with a splitmix64-style avalanche so the low bits
// (which `% K` consumes) are well mixed even for small sequential IDs.
// Stability matters: the hash is the routing, and must not drift across
// Go versions the way map iteration or maphash would.
func (k Key) Hash() uint64 {
	var buf [16]byte
	p, s := uint64(k.Patient), uint64(k.Study)
	for i := 0; i < 8; i++ {
		buf[i] = byte(p >> (8 * i))
		buf[8+i] = byte(s >> (8 * i))
	}
	h := uint64(14695981039346656037)
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (k Key) String() string { return fmt.Sprintf("p%d/s%d", k.Patient, k.Study) }

// Partitioner maps keys onto K shards.
type Partitioner struct {
	shards int
}

// NewPartitioner builds a partitioner over K shards; K < 1 is clamped
// to 1 (the single-node degenerate case).
func NewPartitioner(shards int) Partitioner {
	if shards < 1 {
		shards = 1
	}
	return Partitioner{shards: shards}
}

// Shard returns the shard index for a key in [0, K).
func (p Partitioner) Shard(k Key) int {
	return int(k.Hash() % uint64(p.shards))
}

// Shards returns K.
func (p Partitioner) Shards() int { return p.shards }

// Config parameterizes a Cluster.
type Config struct {
	// Breaker configures each node's circuit breaker. The zero value
	// disables breaking (reads still fail over, they just keep dialing
	// dead primaries first).
	Breaker BreakerConfig
	// Retry is the reads' retry policy, used as given. MaxAttempts
	// bounds the calls one Read may issue across all of a shard's nodes
	// (below 1 means 1: no retries, no failover). BaseBackoff,
	// MaxBackoff and Seed drive the simulated wait before each retry,
	// jittered per request; a zero BaseBackoff waits none (the clock
	// still advances by per-call quanta). transport.RetryableError
	// decides which failures a retry may cure; a node fault fails over.
	Retry transport.RetryPolicy
	// HedgeAfter enables hedged reads: when the serving node's EWMA of
	// simulated latency reaches this threshold, Read also dials the
	// next healthy node and takes the faster answer. Zero disables
	// hedging.
	HedgeAfter time.Duration
	// Metrics receives cluster counters and per-node latency
	// histograms; nil disables.
	Metrics *obs.Registry
}

// callQuantum is the simulated time charged per call on top of its
// bill's latency, so the clock advances even when node latency rounds to
// zero. It drives breakers, the EWMA and hedging, and is in a read's
// LatencySim; it is not network time, so no bill carries it.
const callQuantum = time.Millisecond

// ewmaAlpha weights the simulated-latency moving average; 0.3 tracks a
// node turning slow within a few calls without flapping on one outlier.
const ewmaAlpha = 0.3

// shardState is one shard's node set plus health bookkeeping.
type shardState struct {
	nodes    []transport.Transport
	names    []string // nodeName of each node's position
	breakers []*Breaker
	ewma     []float64 // guarded by Cluster.mu; simulated ns per call
	// latencySeries and errorSeries name each node's latency histogram
	// and error counter, built once so a call concatenates nothing.
	latencySeries, errorSeries []string
}

// Cluster executes reads against sharded, replicated nodes.
type Cluster struct {
	cfg    Config
	part   Partitioner
	shards []*shardState

	mu     sync.Mutex
	simNow time.Duration // simulated clock; advances per call + backoff
}

// New builds a cluster over the given node sets, one inner slice per
// shard (index 0 is the primary, the rest replicas); a node is named by
// its position (nodeName). Every shard must have at least one node.
func New(cfg Config, shards [][]transport.Transport) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	for i, nodes := range shards {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no nodes", i)
		}
	}
	cfg.Retry.MaxAttempts = max(cfg.Retry.MaxAttempts, 1)
	c := &Cluster{cfg: cfg, part: NewPartitioner(len(shards))}
	for sh, nodes := range shards {
		st := &shardState{
			nodes: nodes,
			ewma:  make([]float64, len(nodes)),
		}
		for r := range nodes {
			name := nodeName(sh, r)
			st.names = append(st.names, name)
			st.breakers = append(st.breakers, NewBreaker(cfg.Breaker))
			st.latencySeries = append(st.latencySeries, "cluster_node_latency_seconds_"+name)
			st.errorSeries = append(st.errorSeries, "cluster_node_errors_total_"+name)
		}
		c.shards = append(c.shards, st)
	}
	return c, nil
}

// nodeName names a node by its position, in metrics and errors: s<k>p
// for shard k's primary, s<k>r<i> for its i-th replica.
func nodeName(shard, replica int) string {
	if replica == 0 {
		return fmt.Sprintf("s%dp", shard)
	}
	return fmt.Sprintf("s%dr%d", shard, replica)
}

// Partitioner returns the cluster's routing function.
func (c *Cluster) Partitioner() Partitioner { return c.part }

// NodeState reports the breaker state of one node, for health
// introspection and tests.
func (c *Cluster) NodeState(shard, node int) BreakerState {
	return c.shards[shard].breakers[node].State()
}

// SimNow returns the simulated clock, for tests and reporting.
func (c *Cluster) SimNow() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simNow
}

// advance moves the simulated clock forward and returns the new now.
func (c *Cluster) advance(d time.Duration) time.Duration {
	c.mu.Lock()
	c.simNow += d
	now := c.simNow
	c.mu.Unlock()
	return now
}

// now reads the simulated clock.
func (c *Cluster) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simNow
}

// observeNode folds a call's simulated latency into the node's EWMA and
// returns the updated average.
func (c *Cluster) observeNode(st *shardState, node int, lat time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := st.ewma[node]
	if prev == 0 {
		st.ewma[node] = float64(lat)
	} else {
		st.ewma[node] = ewmaAlpha*float64(lat) + (1-ewmaAlpha)*prev
	}
	return time.Duration(st.ewma[node])
}

// nodeEWMA reads a node's current latency EWMA.
func (c *Cluster) nodeEWMA(st *shardState, node int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(st.ewma[node])
}

// ReadInfo describes how one read was served — which shard and node,
// how hard the cluster had to work, what it put on the network, and how
// much simulated time it cost. It is a value: a read returns it, and the
// caller keeps it or drops it.
type ReadInfo struct {
	// Shard is the shard index that served (or failed) the read.
	Shard int
	// Node is the name of the node whose response was used.
	Node string
	// Attempts is the number of node calls issued, including hedges.
	Attempts int
	// Retries is the number of failed attempts retried after a backoff.
	Retries int
	// Failovers counts attempts served by a different node than the
	// previous attempt dialed, after a retry or a node fault.
	Failovers int
	// Hedged reports whether a hedge call was issued.
	Hedged bool
	// HedgeWon reports whether the hedge's response was the one used.
	HedgeWon bool
	// BackoffSim is the total simulated backoff wait.
	BackoffSim time.Duration
	// LastError describes the most recent failed attempt, if any. It
	// survives an eventual success, so a post-mortem sees what the retries
	// were curing; a read that never fails formats nothing.
	LastError string
	// LatencySim is the simulated latency of the winning call, call
	// quantum included.
	LatencySim time.Duration
	// Net is the sum of the bills of every node call the read made:
	// failed attempts, failovers and hedges as well as the winner.
	Net transport.Stats
}

// Read routes the key to its shard and reads from it.
func (c *Cluster) Read(parent *obs.Span, key Key, method string, request []byte, validate func([]byte) error) ([]byte, ReadInfo, error) {
	return c.read(parent, c.part.Shard(key), key, true, method, request, validate)
}

// ReadShard is Read against a given shard, for a request that may name
// several keys: its span and its errors are labelled by the shard alone.
func (c *Cluster) ReadShard(parent *obs.Span, shard int, method string, request []byte, validate func([]byte) error) ([]byte, ReadInfo, error) {
	return c.read(parent, shard, Key{}, false, method, request, validate)
}

// read executes one read against a specific shard: it dials the
// first breaker-admitted node (primary-first), fails over to the next
// node on retryable errors with capped backoff, hedges against nodes
// whose latency EWMA exceeds HedgeAfter, and returns a typed
// ErrShardUnavailable once attempts are exhausted. A node fault fails
// over at once, never back to that node, and is terminal once every node
// gave one. Terminal (semantic) errors return immediately without
// failover — another replica would give the same answer. validate, when
// non-nil, runs once on every reply a node returns, the hedge's
// included: a reply it refuses is that node's failure — it trips the
// node's breaker and is classified and failed over like a call error.
// When keyed, key labels the span and a terminal error; otherwise the
// shard alone does.
func (c *Cluster) read(parent *obs.Span, shard int, key Key, keyed bool, method string, request []byte, validate func([]byte) error) ([]byte, ReadInfo, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, ReadInfo{Shard: shard}, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	st := c.shards[shard]
	span := parent.Child("cluster.read")
	defer span.End()
	if span != nil {
		span.SetInt("shard", int64(shard))
		if keyed {
			span.SetStr("key", key.String())
		}
	}

	info := ReadInfo{Shard: shard}
	// The backoff jitter stream, made at the first retry: a read that
	// needs none allocates nothing for it.
	var rng *faultsim.Rand
	var lastErr error
	prevNode := -1
	var faulted []bool // nodes that gave a node fault; made at the first

	for attempt := 1; attempt <= c.cfg.Retry.MaxAttempts; attempt++ {
		// Pick the first healthy node, preferring the primary, then
		// skipping past the node that just failed so consecutive
		// attempts rotate through the shard.
		node := c.pickNode(st, prevNode, faulted)
		if node < 0 {
			// Every breaker is open and refusing probes: charge the
			// quantum so cooldowns eventually elapse, then retry.
			c.advance(callQuantum)
			info.Attempts++
			lastErr = fmt.Errorf("cluster: shard %d: all %d node(s) circuit-open", shard, len(st.nodes))
			info.LastError = lastErr.Error()
			if attempt < c.cfg.Retry.MaxAttempts {
				info.Retries++
				info.BackoffSim += c.backoffWait(attempt, &rng, request)
			}
			continue
		}
		if prevNode >= 0 && node != prevNode {
			info.Failovers++
			c.count("cluster_failover_total", 1)
			span.SetStr("failover", st.names[node])
		}
		// Hedging keys off the EWMA as of *before* this call: a node
		// already known slow gets a racing replica call; the first slow
		// response merely seeds the average.
		priorEWMA := c.nodeEWMA(st, node)
		resp, lat, err := c.callNode(span, st, node, method, request, validate, &info.Net)
		info.Attempts++
		if err == nil {
			winner, winLat, hedged, hedgeWon := c.maybeHedge(span, st, node, priorEWMA, method, request, validate, &info.Net, lat)
			if hedged {
				info.Attempts++
				info.Hedged = true
				info.HedgeWon = hedgeWon
			}
			info.Node = st.names[winner]
			info.LatencySim = winLat
			if span != nil {
				span.SetStr("node", info.Node)
				span.SetStr("sim_latency", winLat.String())
			}
			// Replicas are byte-identical: a hedge wins on latency only.
			return resp, info, nil
		}
		lastErr = fmt.Errorf("node %s: %w", st.names[node], err)
		info.LastError = err.Error()
		prevNode = node
		if errors.Is(err, transport.ErrNodeFault) {
			if faulted == nil {
				faulted = make([]bool, len(st.nodes))
			}
			faulted[node] = true
			// Replicas match only as written: ask one that did not rot, now.
			if slices.Contains(faulted, false) {
				continue
			}
		}
		if !transport.RetryableError(err) {
			// Terminal: every replica holds identical bytes, so a
			// semantic failure is the answer, not a health problem.
			info.Node = st.names[node]
			span.SetStr("terminal", err.Error())
			if !keyed {
				return nil, info, fmt.Errorf("cluster: shard %d: %w", shard, lastErr)
			}
			return nil, info, fmt.Errorf("cluster: shard %d %s: %w", shard, key, lastErr)
		}
		if attempt < c.cfg.Retry.MaxAttempts {
			info.Retries++
			info.BackoffSim += c.backoffWait(attempt, &rng, request)
		}
	}
	c.count("cluster_shard_unavailable_total", 1)
	span.SetInt("unavailable", 1)
	err := fmt.Errorf("%w: shard %d after %d attempt(s): %w", ErrShardUnavailable, shard, info.Attempts, lastErr)
	return nil, info, err
}

// pickNode returns the index of the first breaker-admitted node,
// starting at the primary but skipping avoid (the node that just
// failed) unless it is the only choice, and never one marked faulted.
// Returns -1 when every breaker refuses.
func (c *Cluster) pickNode(st *shardState, avoid int, faulted []bool) int {
	now := c.now()
	// Allow has a side effect — a half-open breaker grants exactly one
	// probe per Allow — so it must only be asked about nodes this pick
	// will actually dial. Checking avoid first keeps a skipped node's
	// probe slot intact for the next pick.
	for i := range st.nodes {
		if i == avoid || (faulted != nil && faulted[i]) {
			continue
		}
		if st.breakers[i].Allow(now) {
			return i
		}
	}
	if avoid >= 0 && (faulted == nil || !faulted[avoid]) && st.breakers[avoid].Allow(now) {
		return avoid
	}
	return -1
}

// callNode issues one node call and validates its reply, adding the
// call's bill to net, advancing the simulated clock and updating
// breaker + EWMA + per-node metrics.
func (c *Cluster) callNode(span *obs.Span, st *shardState, node int, method string, request []byte, validate func([]byte) error, net *transport.Stats) ([]byte, time.Duration, error) {
	resp, bill, err := st.nodes[node].Exchange(span, method, request)
	*net = net.Add(bill)
	if err == nil && validate != nil {
		err = validate(resp)
	}
	effective := bill.Latency + callQuantum
	now := c.advance(effective)
	c.observe(st.latencySeries[node], effective)
	if err != nil {
		st.breakers[node].OnFailure(now)
		c.count(st.errorSeries[node], 1)
		return nil, bill.Latency, err
	}
	st.breakers[node].OnSuccess()
	c.observeNode(st, node, effective)
	return resp, effective, nil
}

// maybeHedge issues a hedge call when the serving node's EWMA crossed
// HedgeAfter and another healthy node exists; it returns the winning
// node index and latency. Replicas are byte-identical, so "winning" is
// purely a latency race — the primary payload is always returnable.
func (c *Cluster) maybeHedge(span *obs.Span, st *shardState, served int, priorEWMA time.Duration, method string, request []byte, validate func([]byte) error, net *transport.Stats, lat time.Duration) (winner int, winLat time.Duration, hedged, hedgeWon bool) {
	winner, winLat = served, lat
	if c.cfg.HedgeAfter <= 0 || len(st.nodes) < 2 {
		return
	}
	if priorEWMA < c.cfg.HedgeAfter {
		return
	}
	alt := c.pickNode(st, served, nil)
	if alt < 0 || alt == served {
		return
	}
	hspan := span.Child("cluster.hedge")
	hspan.SetStr("node", st.names[alt])
	_, altLat, err := c.callNode(hspan, st, alt, method, request, validate, net)
	hspan.End()
	hedged = true
	c.count("cluster_hedged_total", 1)
	if err == nil && altLat < winLat {
		winner, winLat, hedgeWon = alt, altLat, true
	}
	return
}

// backoffWait computes, charges to the clock, and returns one retry's
// simulated backoff, drawing its jitter from *rng, which the first draw
// seeds from the configured seed and the request.
func (c *Cluster) backoffWait(attempt int, rng **faultsim.Rand, request []byte) time.Duration {
	if c.cfg.Retry.BaseBackoff <= 0 {
		return 0
	}
	if *rng == nil {
		*rng = faultsim.NewRand(transport.JitterSeed(c.cfg.Retry.Seed, string(request)))
	}
	d := c.cfg.Retry.Backoff(attempt, *rng)
	if d > 0 {
		c.advance(d)
	}
	return d
}

func (c *Cluster) count(name string, delta int64) {
	if c.cfg.Metrics == nil {
		return
	}
	c.cfg.Metrics.Counter(name).Add(delta)
}

func (c *Cluster) observe(name string, d time.Duration) {
	if c.cfg.Metrics == nil {
		return
	}
	c.cfg.Metrics.Histogram(name, obs.LatencyBuckets).Observe(d.Seconds())
}
