package transport

import "time"

// The transport package is covered by qbismlint's determinism analyzer:
// the sim flavor must replay byte-for-byte from a seed, so
// wall-clock reads are banned. Real sockets are the explicit exception
// — a TCP client measures actual round trips and a live server enforces
// actual admission rates — so every wall-clock read in the tcp flavor
// and the server funnels through these two helpers, keeping the
// lint-exemption boundary to exactly the lines below. Nothing on the
// sim path may call them.

// wallNow reads the wall clock for the tcp flavor and the server.
func wallNow() time.Time {
	//lint:ignore determinism the tcp transport and server measure real sockets; the sim flavor never calls this
	return time.Now()
}

// wallSince measures elapsed wall time for the tcp flavor and the
// server.
func wallSince(t time.Time) time.Duration {
	//lint:ignore determinism the tcp transport and server measure real sockets; the sim flavor never calls this
	return time.Since(t)
}
