package transport

import "time"

// The sim flavor must replay byte-for-byte from a seed, so it never
// reads the wall clock (TestFaultDeterminism and the chaos suite's
// replay tests hold it to that). Real sockets are the explicit exception
// — a TCP client measures actual round trips and a live server enforces
// actual admission rates — so every wall-clock read in the tcp flavor
// and the server funnels through these two helpers. Nothing on the sim
// path may call them.

// wallNow reads the wall clock for the tcp flavor and the server.
func wallNow() time.Time {
	return time.Now()
}

// wallSince measures elapsed wall time for the tcp flavor and the
// server.
func wallSince(t time.Time) time.Duration {
	return time.Since(t)
}
