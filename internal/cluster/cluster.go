// Package cluster partitions a study corpus across K shards, each a
// (primary, replica...) set of nodes, and executes reads with
// failover, circuit breaking, and hedging — all on a deterministic
// simulated clock so chaos runs replay byte-for-byte from a seed.
//
// The package is deliberately generic: a Node is anything that can
// answer a framed request (a local qbism System, a simulated-remote
// link, a test fake). Routing is by (patient, study) key so a study's
// queries always land on the same shard regardless of which front end
// issues them.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// Node is one storage node: something that can answer a framed request.
// Each call returns its own bill — the transport.Stats of that one
// exchange, failed ones included — whose Latency (for a simulated node,
// network-model time plus injected latency) drives the cluster's clock,
// EWMA tracking, and hedging decisions, and which a read sums into
// ReadInfo.Net. Call must be safe for concurrent use; nothing in the
// cluster serializes calls to one node.
type Node interface {
	// Name identifies the node in metrics and errors (e.g. "s0p",
	// "s1r1").
	Name() string
	// Call answers one request, returning the response payload and the
	// call's bill. Errors should wrap typed causes with %w so errors.Is
	// classification survives the cluster's own wrapping.
	Call(parent *obs.Span, method string, request []byte) (resp []byte, bill transport.Stats, err error)
}

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

// Shards returns K.
func (p Partitioner) Shards() int { return p.shards }

// Shard returns the shard index for a key in [0, K).
func (p Partitioner) Shard(k Key) int {
	return int(k.Hash() % uint64(p.shards))
}

// Config parameterizes a Cluster.
type Config struct {
	// Breaker configures each node's circuit breaker. The zero value
	// disables breaking (reads still fail over, they just keep dialing
	// dead primaries first).
	Breaker BreakerConfig
	// MaxAttempts bounds the calls one Read may issue across all of a
	// shard's nodes (1 = no retries, no failover). Defaults to 1 per
	// node in the widest shard, minimum 2, when zero.
	MaxAttempts int
	// Backoff returns the simulated wait before retrying after the
	// given 1-based failed attempt. Nil means no backoff (the clock
	// still advances by per-call quanta).
	Backoff func(attempt int, rng *faultsim.Rand) time.Duration
	// JitterSeed seeds the per-key backoff jitter stream; two runs with
	// the same seed and key sequence back off identically.
	JitterSeed uint64
	// Retryable classifies errors: true means another node or attempt
	// may cure it, false is terminal (semantic failure). Nil treats
	// every error as retryable.
	Retryable func(error) bool
	// HedgeAfter enables hedged reads: when the serving node's EWMA of
	// simulated latency reaches this threshold, Read also dials the
	// next healthy node and takes the faster answer. Zero disables
	// hedging.
	HedgeAfter time.Duration
	// Metrics receives cluster counters and per-node latency
	// histograms; nil disables.
	Metrics *obs.Registry
}

func (c Config) withDefaults(widest int) Config {
	if c.MaxAttempts < 1 {
		c.MaxAttempts = widest
		if c.MaxAttempts < 2 {
			c.MaxAttempts = 2
		}
	}
	return c
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
	nodes    []Node
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
// shard (index 0 is the primary, the rest replicas). Every shard must
// have at least one node.
func New(cfg Config, shards [][]Node) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	widest := 0
	for i, nodes := range shards {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no nodes", i)
		}
		if len(nodes) > widest {
			widest = len(nodes)
		}
	}
	c := &Cluster{
		cfg:  cfg.withDefaults(widest),
		part: NewPartitioner(len(shards)),
	}
	for _, nodes := range shards {
		st := &shardState{
			nodes: nodes,
			ewma:  make([]float64, len(nodes)),
		}
		for _, n := range nodes {
			st.breakers = append(st.breakers, NewBreaker(cfg.Breaker))
			st.latencySeries = append(st.latencySeries, "cluster_node_latency_seconds_"+n.Name())
			st.errorSeries = append(st.errorSeries, "cluster_node_errors_total_"+n.Name())
		}
		c.shards = append(c.shards, st)
	}
	return c, nil
}

// Partitioner returns the cluster's routing function.
func (c *Cluster) Partitioner() Partitioner { return c.part }

// Shards returns K.
func (c *Cluster) Shards() int { return len(c.shards) }

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
	// Retries is the number of failed attempts that were retried.
	Retries int
	// Failovers counts attempts served by a different node than the
	// previous attempt dialed (the read "switched nodes").
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
	return c.ReadShard(parent, c.part.Shard(key), key, method, request, validate)
}

// ReadShard executes one read against a specific shard: it dials the
// first breaker-admitted node (primary-first), fails over to the next
// node on retryable errors with capped backoff, hedges against nodes
// whose latency EWMA exceeds HedgeAfter, and returns a typed
// ErrShardUnavailable once attempts are exhausted. Terminal (semantic)
// errors return immediately without failover — another replica would
// give the same answer. validate, when non-nil, runs once on every reply
// a node returns, the hedge's included: a reply it refuses is that
// node's failure — it trips the node's breaker and is classified and
// failed over like a call error.
func (c *Cluster) ReadShard(parent *obs.Span, shard int, key Key, method string, request []byte, validate func([]byte) error) ([]byte, ReadInfo, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, ReadInfo{Shard: shard}, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	st := c.shards[shard]
	span := parent.Child("cluster.read")
	defer span.End()
	if span != nil {
		span.SetInt("shard", int64(shard))
		span.SetStr("key", key.String())
	}

	info := ReadInfo{Shard: shard}
	// The backoff jitter stream, made at the first retry: a read that
	// needs none allocates nothing for it.
	var rng *faultsim.Rand
	var lastErr error
	prevNode := -1

	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		// Pick the first healthy node, preferring the primary, then
		// skipping past the node that just failed so consecutive
		// attempts rotate through the shard.
		node := c.pickNode(st, prevNode)
		if node < 0 {
			// Every breaker is open and refusing probes: charge the
			// quantum so cooldowns eventually elapse, then retry.
			c.advance(callQuantum)
			info.Attempts++
			lastErr = fmt.Errorf("cluster: shard %d: all %d node(s) circuit-open", shard, len(st.nodes))
			info.LastError = lastErr.Error()
			if attempt < c.cfg.MaxAttempts {
				info.Retries++
				info.BackoffSim += c.backoffWait(attempt, &rng, request)
			}
			continue
		}
		if prevNode >= 0 && node != prevNode {
			info.Failovers++
			c.count("cluster_failover_total", 1)
			span.SetStr("failover", st.nodes[node].Name())
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
			info.Node = st.nodes[winner].Name()
			info.LatencySim = winLat
			if span != nil {
				span.SetStr("node", info.Node)
				span.SetStr("sim_latency", winLat.String())
			}
			// Replicas are byte-identical: a hedge wins on latency only.
			return resp, info, nil
		}
		lastErr = fmt.Errorf("node %s: %w", st.nodes[node].Name(), err)
		info.LastError = err.Error()
		prevNode = node
		if c.cfg.Retryable != nil && !c.cfg.Retryable(err) {
			// Terminal: every replica holds identical bytes, so a
			// semantic failure is the answer, not a health problem.
			info.Node = st.nodes[node].Name()
			span.SetStr("terminal", err.Error())
			return nil, info, fmt.Errorf("cluster: shard %d %s: %w", shard, key, lastErr)
		}
		if attempt < c.cfg.MaxAttempts {
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
// failed) unless it is the only choice. Returns -1 when every breaker
// refuses.
func (c *Cluster) pickNode(st *shardState, avoid int) int {
	now := c.now()
	// Allow has a side effect — a half-open breaker grants exactly one
	// probe per Allow — so it must only be asked about nodes this pick
	// will actually dial. Checking avoid first keeps a skipped node's
	// probe slot intact for the next pick.
	for i := range st.nodes {
		if i == avoid {
			continue
		}
		if st.breakers[i].Allow(now) {
			return i
		}
	}
	if avoid >= 0 && st.breakers[avoid].Allow(now) {
		return avoid
	}
	return -1
}

// callNode issues one node call and validates its reply, adding the
// call's bill to net, advancing the simulated clock and updating
// breaker + EWMA + per-node metrics.
func (c *Cluster) callNode(span *obs.Span, st *shardState, node int, method string, request []byte, validate func([]byte) error, net *transport.Stats) ([]byte, time.Duration, error) {
	n := st.nodes[node]
	resp, bill, err := n.Call(span, method, request)
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
	alt := c.pickNode(st, served)
	if alt < 0 || alt == served {
		return
	}
	hspan := span.Child("cluster.hedge")
	hspan.SetStr("node", st.nodes[alt].Name())
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
	if c.cfg.Backoff == nil {
		return 0
	}
	if *rng == nil {
		*rng = faultsim.NewRand(transport.JitterSeed(c.cfg.JitterSeed, string(request)))
	}
	d := c.cfg.Backoff(attempt, *rng)
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
