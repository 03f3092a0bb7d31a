package medserver

import (
	"math/bits"
	"sync"
)

// The server's free list of reply buffers. A reply that a stream
// transport has written is handed back (Server.ReleaseReply) and the next
// reply of about its size is built in it, so a daemon writes each reply's
// bytes once instead of zeroing a fresh buffer and then overwriting it
// (DESIGN.md §59). transport.Sim hands every reply to a client that keeps
// it, so a process that serves only through Sim never releases one: its
// list stays empty and every reply is a new buffer, as before.

// replyPoolBytes bounds the capacity the list holds in total: four Bits 7
// full-study replies (2 MiB of voxels and replyHeadroom each) fit, and a
// buffer that would take the list past the bound is dropped instead.
const replyPoolBytes = 8 << 20

// replyClasses is the number of size classes: a buffer of capacity c is
// in class ⌊log₂ c⌋, and no class past replyPoolBytes' holds anything.
const replyClasses = 24

// replySlots is how many buffers one size class holds.
const replySlots = 16

// poisonReleased is set in a build with the race detector
// (poison_race.go): put then fills every buffer it is handed with
// poisonByte.
var poisonReleased bool

// poisonByte is what a poisoned buffer holds.
const poisonByte = 0xDB

// replyPool is the free list: a fixed array of slots per size class
// under one mutex, so get and put allocate nothing. Its zero value is
// empty and ready; a nil *replyPool allocates every buffer and keeps
// none, for callers with no server.
type replyPool struct {
	mu    sync.Mutex
	bytes int                      // guarded by mu: Σ cap of the held buffers
	class [replyClasses]replyClass // guarded by mu
}

// replyClass is one size class's held buffers, bufs[:n].
type replyClass struct {
	n    int
	bufs [replySlots][]byte
}

// get returns a buffer of length n. A held buffer is handed out only when
// its capacity is at least n and under 2n, so a caller that keeps what it
// gets never pins a much larger one; such a buffer lies in class ⌊log₂ n⌋
// or the one above. Otherwise get allocates exactly n bytes. The bytes
// are not cleared: the caller overwrites all n.
func (p *replyPool) get(n int) []byte {
	if p == nil || n <= 0 {
		return make([]byte, n)
	}
	c := bits.Len(uint(n)) - 1
	p.mu.Lock()
	for k := c; k <= c+1 && k < replyClasses; k++ {
		cl := &p.class[k]
		for i := cl.n - 1; i >= 0; i-- {
			if b := cl.bufs[i]; cap(b) >= n && cap(b) < 2*n {
				cl.n--
				cl.bufs[i], cl.bufs[cl.n] = cl.bufs[cl.n], nil
				p.bytes -= cap(b)
				p.mu.Unlock()
				return b[:n]
			}
		}
	}
	p.mu.Unlock()
	return make([]byte, n)
}

// put holds b for a later get, unless its class is full or it would take
// the list past replyPoolBytes; then it is left to the collector. The
// caller must not touch b afterwards. Under the race detector every
// buffer put is first filled with poisonByte, so a reader still holding
// it reads garbage that the byte-identity suites catch.
func (p *replyPool) put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if poisonReleased {
		for i := range b {
			b[i] = poisonByte
		}
	}
	c := bits.Len(uint(len(b))) - 1
	p.mu.Lock()
	defer p.mu.Unlock()
	if c >= replyClasses || p.bytes+len(b) > replyPoolBytes || p.class[c].n == replySlots {
		return
	}
	cl := &p.class[c]
	cl.bufs[cl.n] = b
	cl.n++
	p.bytes += len(b)
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
func (s *Server) ReleaseReply(reply []byte) { s.replies.put(reply) }
