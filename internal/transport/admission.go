package transport

import (
	"sync"
	"time"
)

// Admission control: a token bucket per client key. Each admitted call
// spends one token; tokens refill continuously at Rate per second up to
// Burst. A client that sustains more than Rate calls/sec sees typed
// ErrAdmissionRejected responses — backpressure it can obey by backing
// off (RetryableError treats admission rejections as retryable for
// exactly that reason).

// AdmissionConfig parameterizes the server's per-client rate limiting.
type AdmissionConfig struct {
	// Rate is the sustained calls/second allowed per client key.
	// Zero or negative disables admission control entirely.
	Rate float64
	// Burst is the bucket depth — how many calls a client may issue
	// back-to-back after an idle period. Defaults to Rate (one
	// second's worth), minimum 1.
	Burst float64
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = c.Rate
	}
	if c.Rate > 0 && c.Burst < 1 {
		c.Burst = 1
	}
	return c
}

// admitter holds one token bucket per client key. The clock is
// injected: the server passes the wall clock, tests pass a fake.
type admitter struct {
	cfg AdmissionConfig
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket // guarded by mu
	swept   time.Time               // guarded by mu; when Allow last dropped the refilled buckets
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newAdmitter(cfg AdmissionConfig, now func() time.Time) *admitter {
	return &admitter{cfg: cfg.withDefaults(), now: now, buckets: make(map[string]*tokenBucket)}
}

// Allow reports whether the client may issue one call now, spending a
// token if so.
func (a *admitter) Allow(client string) bool {
	if a.cfg.Rate <= 0 {
		return true
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sweepLocked(now)
	b, ok := a.buckets[client]
	if !ok {
		b = &tokenBucket{tokens: a.cfg.Burst, last: now}
		a.buckets[client] = b
	} else {
		a.refillLocked(b, now)
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweepLocked drops every bucket that has refilled to Burst — it admits
// exactly what an absent one would — once per Burst/Rate, the time an
// empty bucket takes to refill. A bucket that survives was spent from
// since the sweep before, so the map holds at most the clients of two
// such intervals and each walk is paid for by the calls in between.
// Callers must hold a.mu.
func (a *admitter) sweepLocked(now time.Time) {
	refill := time.Duration(a.cfg.Burst / a.cfg.Rate * float64(time.Second))
	if now.Sub(a.swept) < refill {
		return
	}
	a.swept = now
	for client, b := range a.buckets {
		if a.refillLocked(b, now); b.tokens >= a.cfg.Burst {
			delete(a.buckets, client)
		}
	}
}

// refillLocked credits b the tokens earned since it was last touched,
// up to Burst. Callers must hold a.mu.
func (a *admitter) refillLocked(b *tokenBucket, now time.Time) {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed <= 0 {
		return
	}
	b.tokens += elapsed * a.cfg.Rate
	if b.tokens > a.cfg.Burst {
		b.tokens = a.cfg.Burst
	}
	b.last = now
}
