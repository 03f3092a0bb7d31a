package medserver

import (
	"math/bits"
	"sync"
	"unsafe"

	"qbism/internal/region"
)

// The server's free lists. A reply that a stream transport has written
// is handed back (Server.ReleaseReply) and the next reply of about its
// size is built in it, so a daemon writes each reply's bytes once instead
// of zeroing a fresh buffer and then overwriting it (DESIGN.md §11).
// transport.Sim hands every reply to a client that keeps it, so a process
// that serves only through Sim never releases one.
//
// The same list, over run lists and words, holds the large working
// buffers a request grows and no longer needs (DESIGN.md §11): a spatial
// call site's stored REGION and run list over sdb.MaxIdleBytes, which it
// gives back when its statement goes idle (regionSlot.reset), and the
// population fold's slabs and answer runs (handlePopulation). So a
// paper-scale request builds in what an earlier one grew, and what is
// idle is bounded server-wide: freeListBytes per element type.

// freeListBytes bounds the capacity one list holds in total, in bytes:
// four Bits 7 full-study replies (2 MiB of voxels and replyHeadroom each)
// fit, and a buffer that would take the list past the bound is dropped
// instead.
const freeListBytes = 8 << 20

// freeClasses is the number of size classes: a buffer of capacity c is in
// class ⌊log₂ c⌋, and no class past freeListBytes' holds anything.
const freeClasses = 24

// freeSlots is how many buffers one size class holds.
const freeSlots = 16

// poisonReleased is set in a build with the race detector
// (poison_race.go): put then fills every buffer it is handed with
// poisonByte.
var poisonReleased bool

// poisonByte is what every byte of a poisoned buffer holds.
const poisonByte = 0xDB

// freeElem is what a free list holds buffers of: the reply's bytes, and
// the run lists and words REGIONs are built in. None holds a pointer, so
// a buffer is poisoned byte by byte.
type freeElem interface {
	byte | uint64 | region.Run
}

// freeList is a free list of []E: a fixed array of slots per size class
// under one mutex, so Get and Put allocate nothing. Its zero value is
// empty and ready; a nil *freeList allocates every buffer and keeps none,
// for callers with no server.
type freeList[E freeElem] struct {
	mu    sync.Mutex
	bytes int                       // guarded by mu: Σ cap × size of the held buffers
	class [freeClasses]freeClass[E] // guarded by mu
}

// freeClass is one size class's held buffers, bufs[:n].
type freeClass[E freeElem] struct {
	n    int
	bufs [freeSlots][]E
}

// freeLists are a server's lists, one per element type.
type freeLists struct {
	bytes freeList[byte]       // replies, and stored REGIONs read whole
	runs  freeList[region.Run] // run lists
	words freeList[uint64]     // the population fold's words
}

// Get returns a buffer of length n. A held buffer is handed out only when
// its capacity is at least n and under 2n, so a caller that keeps what it
// gets never pins a much larger one; such a buffer lies in class ⌊log₂ n⌋
// or the one above. Otherwise Get allocates exactly n elements. The
// elements are not cleared: the caller overwrites all n.
func (l *freeList[E]) Get(n int) []E {
	if l == nil || n <= 0 {
		return make([]E, n)
	}
	c := bits.Len(uint(n)) - 1
	l.mu.Lock()
	for k := c; k <= c+1 && k < freeClasses; k++ {
		cl := &l.class[k]
		for i := cl.n - 1; i >= 0; i-- {
			if b := cl.bufs[i]; cap(b) >= n && cap(b) < 2*n {
				cl.n--
				cl.bufs[i], cl.bufs[cl.n] = cl.bufs[cl.n], nil
				l.bytes -= sizeOf(b)
				l.mu.Unlock()
				return b[:n]
			}
		}
	}
	l.mu.Unlock()
	return make([]E, n)
}

// Put holds b for a later Get, unless its class is full or it would take
// the list past freeListBytes; then it is left to the collector. The
// caller must not touch b afterwards. Under the race detector every
// buffer put is first filled with poisonByte, so a reader still holding
// it reads garbage that the byte-identity suites catch.
func (l *freeList[E]) Put(b []E) {
	if l == nil || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if poisonReleased {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), sizeOf(b))
		for i := range raw {
			raw[i] = poisonByte
		}
	}
	c := bits.Len(uint(len(b))) - 1
	l.mu.Lock()
	defer l.mu.Unlock()
	if c >= freeClasses || l.bytes+sizeOf(b) > freeListBytes || l.class[c].n == freeSlots {
		return
	}
	cl := &l.class[c]
	cl.bufs[cl.n] = b
	cl.n++
	l.bytes += sizeOf(b)
}

// sizeOf is the bytes of b's capacity.
func sizeOf[E any](b []E) int {
	var e E
	return cap(b) * int(unsafe.Sizeof(e))
}

// ReleaseReply hands back a reply that ServeRPC returned, whole, once
// its caller has written it and will read none of its bytes again: the
// server builds a later reply in it. The daemon is the caller that does
// (transport.Server releases each ok reply after its socket write). A
// reply that is kept must never be released: transport.Sim's client
// renders straight from its reply, and the DX client's cache holds it.
// Releasing is optional. Releasing a reply twice, or one still being
// read, lets two later replies share one buffer, and in a build without
// the race detector one of them is silently corrupted; under -race the
// buffer is poisoned on release, so a late reader fails the byte-identity
// suites.
func (s *Server) ReleaseReply(reply []byte) { s.free.bytes.Put(reply) }
