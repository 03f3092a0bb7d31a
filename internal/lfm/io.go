package lfm

import (
	"slices"

	"qbism/internal/obs"
)

// IO is one call's account with a manager. The long-field reads made on
// the call's behalf go through it (Read, ReadAtInto), and each adds what
// it cost — pages, operations, bytes, cache hits and misses, injected
// faults, checksum failures — to the embedded Stats as it happens, under
// the manager lock the read holds anyway. Nothing is inferred from the
// device-wide meter (Manager.Stats), so the bill is exact however many
// calls share the manager.
//
// An IO belongs to one goroutine at a time and lives in memory its call
// has anyway: a prepared statement's retained execution, a handler's
// stack frame. The zero value with M set is ready to use.
type IO struct {
	M *Manager
	Stats

	// PerHandle also keeps the bill per long field, in first-read order,
	// for the call's trace (Spans).
	PerHandle bool
	handles   []handleIO
}

// handleIO is one field's share of a bill.
type handleIO struct {
	h         Handle
	cost      Stats
	ops       int64
	errors    int64
	lastError string
}

// Read is Manager.Read billed to io.
func (io *IO) Read(h Handle) ([]byte, error) { return io.M.readInto(io, h, nil) }

// ReadInto is Read into the caller's buffer: the whole field, read under
// one lock and billed exactly as Read bills it, lands in buf's backing
// array when it has room (the result is buf resliced to the field's
// size) and in a new slice otherwise. When it fails, buf holds
// unspecified bytes.
func (io *IO) ReadInto(h Handle, buf []byte) ([]byte, error) { return io.M.readInto(io, h, buf) }

// ReadAtInto is Manager.ReadAtInto billed to io.
func (io *IO) ReadAtInto(h Handle, off uint64, dst []byte) error {
	return io.M.readAtInto(io, h, off, dst)
}

// charge adds one read of h to the bill; the manager holds its lock.
func (io *IO) charge(h Handle, cost Stats, err error) {
	io.Stats.Add(cost)
	if !io.PerHandle {
		return
	}
	i := slices.IndexFunc(io.handles, func(a handleIO) bool { return a.h == h })
	if i < 0 {
		i = len(io.handles)
		io.handles = append(io.handles, handleIO{h: h})
	}
	a := &io.handles[i]
	a.ops++
	a.cost.Add(cost)
	if err != nil {
		a.errors++
		a.lastError = err.Error()
	}
}

// Spans writes the per-field bill under parent: one "lfm.read" span a
// field, carrying the operation count, pages transferred, bytes, cache
// hit/miss split, injected faults and checksum failures as integer
// attributes. They are ledger lines, made and ended here, not intervals:
// run-pruned extraction issues thousands of reads a query, and a span —
// or a span update — per read is what would blow the tracing budget.
// Over any set of calls the "pages" attributes sum to those calls'
// PageReads.
func (io *IO) Spans(parent *obs.Span) {
	for i := range io.handles {
		a := &io.handles[i]
		sp := parent.Child("lfm.read")
		sp.SetInt("handle", int64(a.h))
		sp.SetInt("ops", a.ops)
		sp.SetInt("pages", int64(a.cost.PageReads))
		set := func(key string, n uint64) {
			if n > 0 {
				sp.SetInt(key, int64(n))
			}
		}
		set("bytes", a.cost.BytesRead)
		set("cacheHits", a.cost.CacheHits)
		set("cacheMisses", a.cost.CacheMisses)
		set("faults", a.cost.FaultsInjected)
		set("checksumFailures", a.cost.ChecksumFailures)
		if a.errors > 0 {
			sp.SetInt("errors", a.errors)
			sp.SetStr("lastError", a.lastError)
		}
		sp.End()
	}
}

// Reset empties the bill for the next call, keeping M, PerHandle and
// the per-field list's capacity.
func (io *IO) Reset() {
	io.Stats = Stats{}
	clear(io.handles)
	io.handles = io.handles[:0]
}
