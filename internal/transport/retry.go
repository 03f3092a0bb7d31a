package transport

import (
	"errors"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/lfm"
)

// RetryPolicy governs how a client retries transient call failures.
// Backoff is capped exponential with deterministic jitter: attempt k
// waits in [base·2^(k-1)/2, base·2^(k-1)), capped at MaxBackoff, with
// the jitter drawn from a stream seeded by Seed and the request — so
// two identical runs back off identically. The waits are simulated
// time (reported in the read's BackoffSim, which Table 3 prices beside
// the network time), never real sleeps, so benchmarks stay fast and reproducible.
//
// The policy lives at the transport seam, where both flavors can reach
// it; the one loop that applies it is the cluster's read
// (cluster.ReadShard), which serves a single server as a cluster of one
// node, over the simulated link or a socket alike.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retries).
	MaxAttempts int
	// BaseBackoff is the first retry's nominal wait.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Seed drives the jitter stream.
	Seed uint64
}

// DefaultRetryPolicy survives transient fault rates around 10% with
// better than 99.99% query success.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 1}
}

// WithDefaults fills zero fields; a zero policy means a single attempt.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// Backoff returns the simulated wait before retrying after the given
// 1-based failed attempt: capped exponential with jitter in [d/2, d).
// The cluster's read applies it (cluster.Config.Retry).
func (p RetryPolicy) Backoff(attempt int, rng *faultsim.Rand) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// RetryableError reports whether err is a transient failure a retry
// can plausibly cure: link-level drops, timeouts, and detected
// corruption; truncated or corrupted frames; broken or refused
// connections; admission rejections and draining servers (back off,
// the server is telling the client to slow down or look elsewhere);
// server-classified retryable remote failures; and device read faults
// or checksum mismatches (re-reads succeed when the corruption
// happened in transfer rather than at rest). Semantic failures —
// unknown study, unknown structure, malformed spec, unknown method —
// are terminal.
func RetryableError(err error) bool {
	switch {
	case errors.Is(err, ErrDropped),
		errors.Is(err, ErrLinkTimeout),
		errors.Is(err, ErrCorrupt),
		errors.Is(err, ErrFrameTruncated),
		errors.Is(err, ErrFrameCorrupt),
		errors.Is(err, ErrDial),
		errors.Is(err, ErrConn),
		errors.Is(err, ErrAdmissionRejected),
		errors.Is(err, ErrDraining),
		errors.Is(err, ErrRemote),
		errors.Is(err, lfm.ErrReadFault),
		errors.Is(err, lfm.ErrWriteFault),
		errors.Is(err, lfm.ErrChecksum):
		return true
	}
	return false
}

// JitterSeed mixes a policy seed with an FNV-1a hash of a call key (the
// cluster passes the request bytes), so concurrent calls jitter
// differently but deterministically.
func JitterSeed(seed uint64, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return seed ^ h
}
