//go:build race

package medserver

// Under the race detector every released reply buffer is poisoned
// (replyPool.put), so a reader still holding one after its release reads
// bytes no answer has.
func init() { poisonReleased = true }
