//go:build race

package medserver

// Under the race detector every buffer put on a free list — a released
// reply, a run list a call site gave back, a fold slab — is poisoned
// (freeList.Put), so a reader still holding one after it went back reads
// bytes no answer has.
func init() { poisonReleased = true }
