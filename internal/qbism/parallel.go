package qbism

import (
	"qbism/internal/cluster"
	"qbism/internal/obs"
	"qbism/internal/par"
)

// The parallel executor: batches of independent query specs fan out
// over a bounded worker pool. The whole query stack below here is
// safe for concurrent readers: the LFM serializes I/O (and its fault
// injector) under its mutex, transport.Sim and dx.Cache carry their own
// locks, and the SQL SELECT path is read-only. Results are collected by
// input position, so ordering is deterministic regardless of worker
// interleaving; each worker runs the same retrying RunQuery path, so
// PR 1's fault-resilience guarantees carry over unchanged.
//
// Per-query counters are exact under concurrency too: each server call
// bills its own reads (QueryMeta), each exchange its own messages and
// network time (Timing.NetMessages, Read.Net.Latency). What is NOT
// deterministic is the assignment of fault-injector draws to queries
// (the injector stream is consumed in arrival order at the device and
// the link), so an experiment that needs a reproducible fault schedule
// runs serially.

// BatchItem is one completed entry of a RunQueries batch: the spec, and
// either its result or its error.
type BatchItem struct {
	Spec QuerySpec
	Res  *QueryResult
	Err  error
}

// RunQueries executes the specs across a bounded worker pool and
// returns one BatchItem per spec, in input order, the batch's
// PartialResult and its root span. workers is the pool size; one or
// fewer runs serially on the calling goroutine. Individual query
// failures (after the read's own retries) land in their item's Err; the
// batch always completes. The partial is nil when every shard answered;
// otherwise it names each shard lost past retries — a single server's
// one shard, 0, included — and the keys that went unanswered with it,
// whose items carry a cluster.ErrShardUnavailable error. The surviving
// items are complete and exact. Every query's tree hangs off the one
// "batch" span, nil when tracing is off; spans are internally locked,
// so concurrent workers appending children under it are race-clean.
//
// The answers are allocated cacheCapacity to a slab, and their images'
// pixels in one slab beside each (answerSlab): a batch the DX cache can
// hold whole makes two allocations for what n queries run one at a time
// make 2n of. A failed item's place in its slabs goes unused.
func (c *Client) RunQueries(specs []QuerySpec, workers int) ([]BatchItem, *cluster.PartialResult, *obs.Span) {
	batch := c.Tracer.Start("batch")
	defer batch.End()
	batch.SetInt("queries", int64(len(specs)))
	batch.SetInt("workers", int64(workers))
	out := make([]BatchItem, len(specs))
	for i, spec := range specs {
		out[i].Spec = spec
	}
	answers := c.batchAnswers(len(specs))
	par.Each(len(specs), workers, func(i int) {
		out[i].Res, out[i].Err = c.runQuerySpan(batch, answers.at(i), out[i].Spec)
	})
	partial := c.Cluster.BuildPartial(batch, len(out), func(i int) (cluster.Key, error) {
		key, _ := c.route(out[i].Spec.StudyID)
		return key, out[i].Err
	})
	return out, partial, batch
}

// batchAnswers are a batch's answers, in slabs of cacheCapacity: head is
// the first slab and rest the others, nil for a batch of one slab, so a
// batch the DX cache can hold whole finds its answers with no allocation
// beyond its slabs.
type batchAnswers struct {
	head []answer
	rest [][]answer
}

// batchAnswers allocates the answers of a batch of n.
func (c *Client) batchAnswers(n int) batchAnswers {
	b := batchAnswers{head: c.answerSlab(min(n, cacheCapacity))}
	for lo := cacheCapacity; lo < n; lo += cacheCapacity {
		b.rest = append(b.rest, c.answerSlab(min(n-lo, cacheCapacity)))
	}
	return b
}

// at returns the answer of the batch's item i.
func (b batchAnswers) at(i int) *answer {
	if i < cacheCapacity {
		return &b.head[i]
	}
	return &b.rest[i/cacheCapacity-1][i%cacheCapacity]
}

// answerSlab allocates n answers in one object and their images' pixels
// in another, a side² piece each for the configured grid. Each piece is
// capped, so an append to one image's Pix moves it rather than write
// over the next image. A reply of another grid renders into a buffer of
// its own (dx.Field.RenderInto): correct, just not in the slab.
func (c *Client) answerSlab(n int) []answer {
	slab := make([]answer, n)
	area := c.side * c.side
	pix := make([]uint8, n*area)
	for j := range slab {
		lo, hi := j*area, (j+1)*area
		slab[j].img.Pix = pix[lo:hi:hi]
	}
	return slab
}
