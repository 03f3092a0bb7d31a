package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"qbism/internal/obs"
)

// ErrShardUnavailable marks a read that exhausted every node and
// attempt on its shard. Scatter-gather callers classify per-item
// errors with errors.Is against this sentinel to build a
// PartialResult instead of failing the whole batch.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// ShardFailure names one shard lost during a scatter-gather and why.
type ShardFailure struct {
	// Shard is the lost shard's index.
	Shard int
	// Err is the representative error (first loss observed for the
	// shard, wrapping ErrShardUnavailable and the underlying typed
	// cause).
	Err error
	// Keys lists the routing keys whose reads were lost to this shard,
	// in input order.
	Keys []Key
}

// PartialResult is the typed "graceful degradation" meta a
// scatter-gather returns alongside surviving rows when one or more
// shards are dead past retries: which shards were lost, why, and which
// keys went unanswered. A nil *PartialResult means every shard
// answered.
type PartialResult struct {
	// TotalShards is the cluster size K.
	TotalShards int
	// Failed lists the lost shards in ascending shard order.
	Failed []ShardFailure
}

// LostShards returns the failed shard indexes in ascending order.
func (p *PartialResult) LostShards() []int {
	if p == nil {
		return nil
	}
	out := make([]int, len(p.Failed))
	for i, f := range p.Failed {
		out[i] = f.Shard
	}
	return out
}

// LostKeys returns the total number of unanswered keys.
func (p *PartialResult) LostKeys() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, f := range p.Failed {
		n += len(f.Keys)
	}
	return n
}

// Error renders the partial as a summary suitable for logs; it is a
// description, not an error value — the surviving rows are still good.
func (p *PartialResult) String() string {
	if p == nil || len(p.Failed) == 0 {
		return "complete"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "partial: %d/%d shard(s) lost:", len(p.Failed), p.TotalShards)
	for _, f := range p.Failed {
		fmt.Fprintf(&b, " shard %d (%d key(s)): %v;", f.Shard, len(f.Keys), f.Err)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// BuildPartial folds a scatter-gather's reads into a PartialResult: read(i)
// is the i-th read's key and error. Reads whose error wraps
// ErrShardUnavailable are grouped by their key's shard, each group
// keeping its first error; other errors are ignored (they are the
// caller's to surface as real failures). It returns nil when nothing was
// lost. A partial counts in cluster_partial_total, its keys in
// cluster_lost_queries_total, and is noted on span.
func (c *Cluster) BuildPartial(span *obs.Span, n int, read func(i int) (Key, error)) *PartialResult {
	var p *PartialResult
	for i := range n {
		key, err := read(i)
		if !errors.Is(err, ErrShardUnavailable) {
			continue
		}
		if p == nil {
			p = &PartialResult{TotalShards: len(c.shards)}
		}
		sh := c.part.Shard(key)
		j := slices.IndexFunc(p.Failed, func(f ShardFailure) bool { return f.Shard == sh })
		if j < 0 {
			j = len(p.Failed)
			p.Failed = append(p.Failed, ShardFailure{Shard: sh, Err: err})
		}
		p.Failed[j].Keys = append(p.Failed[j].Keys, key)
	}
	if p == nil {
		return nil
	}
	// Ascending shard order keeps the report deterministic regardless
	// of which worker observed each loss first.
	slices.SortFunc(p.Failed, func(a, b ShardFailure) int { return a.Shard - b.Shard })
	c.count("cluster_partial_total", 1)
	c.count("cluster_lost_queries_total", int64(p.LostKeys()))
	span.SetStr("partial", p.String())
	return p
}
