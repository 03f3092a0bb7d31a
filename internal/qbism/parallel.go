package qbism

import (
	"qbism/internal/obs"
	"qbism/internal/par"
)

// The parallel executor: batches of independent query specs fan out
// over a bounded worker pool. The whole query stack below here is
// safe for concurrent readers: the LFM serializes I/O (and its fault
// injector) under its mutex, netsim.Link and dx.Cache carry their own
// locks, and the SQL SELECT path is read-only. Results are collected by
// input position, so ordering is deterministic regardless of worker
// interleaving; each worker runs the same retrying RunQuery path, so
// PR 1's fault-resilience guarantees carry over unchanged.
//
// Per-query counters are exact under concurrency too: each server call
// bills its own reads (QueryMeta), each exchange its own messages and
// network time (Timing.NetMessages, NetSim). What is NOT deterministic
// is the assignment of fault-injector draws to queries (the injector
// stream is consumed in arrival order at the device and the link), so
// an experiment that needs a reproducible fault schedule runs serially.

// BatchItem is one completed entry of a RunQueries batch: the spec, and
// either its result or its error.
type BatchItem struct {
	Spec QuerySpec
	Res  *QueryResult
	Err  error
}

// RunQueries executes the specs across a bounded worker pool and
// returns one BatchItem per spec, in input order. workers <= 0 takes
// the pool size from Config.Workers; a resolved size of 0 or 1 runs
// serially on the calling goroutine. Individual query failures (after
// RunQuery's own retries) land in their item's Err; the batch always
// completes.
func (c *Client) RunQueries(specs []QuerySpec, workers int) []BatchItem {
	items, _ := c.RunQueriesTraced(specs, workers)
	return items
}

// RunQueriesTraced is RunQueries plus the batch's root span: every
// per-study query tree hangs off one "batch" span, so a multi-study
// workload renders as a single forest. The span is nil when tracing is
// off. Spans are internally locked, so concurrent workers appending
// children under the shared root are race-clean.
func (c *Client) RunQueriesTraced(specs []QuerySpec, workers int) ([]BatchItem, *obs.Span) {
	items, batch := c.runBatch(specs, workers)
	batch.End()
	return items, batch
}

// runBatch is the one batch loop. It leaves the batch span open so the
// cluster can annotate it with what the batch lost; the caller ends it.
func (c *Client) runBatch(specs []QuerySpec, workers int) ([]BatchItem, *obs.Span) {
	if workers <= 0 {
		workers = c.workers
	}
	batch := c.Tracer.Start("batch")
	batch.SetInt("queries", int64(len(specs)))
	batch.SetInt("workers", int64(workers))
	out := make([]BatchItem, len(specs))
	for i, spec := range specs {
		out[i].Spec = spec
	}
	par.Each(len(specs), workers, func(i int) {
		out[i].Res, out[i].Err = c.runQuerySpan(batch, out[i].Spec)
	})
	return out, batch
}
