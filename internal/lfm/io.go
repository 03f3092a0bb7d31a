package lfm

import (
	"fmt"
	"slices"

	"qbism/internal/obs"
	"qbism/internal/region"
)

// IO is one call's account with a manager. The long-field reads made on
// the call's behalf go through it (Read, ReadInto, ReadAtInto,
// ReadRunsInto), and each adds what it cost — pages, operations, bytes,
// cache hits and misses, injected faults, checksum failures — to the
// embedded Stats. A read that fails is billed too, for the pages it
// transferred: those before a page whose read fault stopped it, or those
// through a page that failed its checksum. Nothing is inferred from the
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

	// page is where a read transfers a page it does not take whole, to
	// copy the wanted bytes out of once the manager lock is released;
	// nil until a read needs it, then kept.
	page []byte
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
func (io *IO) Read(h Handle) ([]byte, error) { return io.read(h, true, 0, 0, nil) }

// ReadInto is Read into the caller's buffer: the whole field, billed
// exactly as Read bills it, lands in buf's backing array when it has room
// (the result is buf resliced to the field's size) and in a new slice
// otherwise. When it fails, buf holds unspecified bytes.
func (io *IO) ReadInto(h Handle, buf []byte) ([]byte, error) {
	return io.read(h, true, 0, 0, buf)
}

// ReadAtInto is Manager.ReadAt into the caller's buffer, billed to io:
// it fills dst with the len(dst) bytes at logical offset off, under the
// same page transfers, fault draws, checksum verification and
// accounting, and allocates nothing on the way. When it fails, dst holds
// unspecified bytes.
func (io *IO) ReadAtInto(h Handle, off uint64, dst []byte) error {
	_, err := io.read(h, false, off, uint64(len(dst)), dst)
	return err
}

// ReadRunsInto is the gathering read. It reads the pages runs span, from
// the first run's page through the last run's, as one read — transferred
// and billed exactly as ReadAtInto transfers and bills a read of those
// whole pages (the field's short last page clamped), in the same page
// order, pages between runs included — and fills dst with the bytes of
// runs alone, packed in run order. runs are inclusive byte ranges of the
// field, sorted and disjoint, and dst must be exactly as long as they
// are. A page lying inside one run is transferred straight into dst; the
// wanted bytes of any other page are copied out of io's page buffer. No
// runs is a read of nothing, billed as ReadAtInto bills one. When it
// fails, dst holds unspecified bytes.
func (io *IO) ReadRunsInto(h Handle, runs []region.Run, dst []byte) error {
	f, err := io.M.field(h)
	if err != nil {
		return err
	}
	var total, next uint64
	for _, r := range runs {
		if r.Hi >= f.size {
			return fmt.Errorf("%w: run [%d,%d] of %d-byte field", ErrOutOfRange, r.Lo, r.Hi, f.size)
		}
		if r.Lo < next || r.Hi < r.Lo {
			return fmt.Errorf("lfm: run [%d,%d] is empty or not after the run before it", r.Lo, r.Hi)
		}
		next = r.Hi + 1
		total += r.Len()
	}
	if total != uint64(len(dst)) {
		return fmt.Errorf("lfm: %d-byte buffer for %d bytes of runs", len(dst), total)
	}
	var off, n uint64
	if len(runs) > 0 {
		ps := io.M.pageSize
		off = runs[0].Lo / ps * ps
		n = min((runs[len(runs)-1].Hi/ps+1)*ps, f.size) - off
	}
	return io.gather(h, f, off, n, runs, dst)
}

// read reads the whole field, or n bytes at logical offset off of it,
// into buf's backing array when it has room for them and into a new
// slice otherwise, and returns them: one run, gathered.
func (io *IO) read(h Handle, whole bool, off, n uint64, buf []byte) ([]byte, error) {
	f, err := io.M.field(h)
	if err != nil {
		return nil, err
	}
	if whole {
		n = f.size
	}
	if off > f.size || n > f.size-off {
		return nil, fmt.Errorf("%w: [%d,%d) of %d-byte field", ErrOutOfRange, off, off+n, f.size)
	}
	if buf == nil || uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	dst := buf[:n]
	run := [1]region.Run{{Lo: off, Hi: off + n - 1}}
	if err := io.gather(h, f, off, n, run[:min(n, 1)], dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// gather runs the page loop for one read and adds what it cost — counted
// whether or not the read succeeded — to the bill.
func (io *IO) gather(h Handle, f field, off, n uint64, runs []region.Run, dst []byte) error {
	var cost Stats
	err := io.M.readPages(&cost, &io.page, h, f, off, n, runs, dst)
	io.charge(h, cost, err)
	return err
}

// charge adds one read of h to the bill.
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

// Reset empties the bill for the next call, keeping M, PerHandle, the
// per-field list's capacity and the page buffer.
func (io *IO) Reset() {
	io.Stats = Stats{}
	clear(io.handles)
	io.handles = io.handles[:0]
}
