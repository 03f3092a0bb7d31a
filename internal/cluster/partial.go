package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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

// BuildPartial folds per-key read errors into a PartialResult. Items
// whose error wraps ErrShardUnavailable are grouped by shard; other
// errors are ignored (they are the caller's to surface as real
// failures). Returns nil when nothing was lost.
func BuildPartial(totalShards int, keys []Key, shards []int, errs []error) *PartialResult {
	byShard := map[int]*ShardFailure{}
	var order []int
	for i, err := range errs {
		if err == nil || !errors.Is(err, ErrShardUnavailable) {
			continue
		}
		sh := shards[i]
		f, ok := byShard[sh]
		if !ok {
			f = &ShardFailure{Shard: sh, Err: err}
			byShard[sh] = f
			order = append(order, sh)
		}
		f.Keys = append(f.Keys, keys[i])
	}
	if len(order) == 0 {
		return nil
	}
	// Ascending shard order keeps the report deterministic regardless
	// of which worker observed each loss first.
	slices.Sort(order)
	p := &PartialResult{TotalShards: totalShards}
	for _, sh := range order {
		p.Failed = append(p.Failed, *byShard[sh])
	}
	return p
}
