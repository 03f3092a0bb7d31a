package qbism

import (
	"strings"
	"testing"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/transport"
)

// nominalBackoff is the un-jittered schedule the docs promise: attempt
// k waits around base·2^(k-1), capped at max — including a first
// attempt whose base already exceeds the cap.
func nominalBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			break
		}
	}
	if d > max {
		d = max
	}
	return d
}

// TestBackoffSchedule pins the cap behavior at the boundaries: exact
// power-of-two caps, caps that fall between doublings, and a base
// already above the cap (which must clamp on the very first retry).
func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name      string
		base, max time.Duration
		attempts  int
	}{
		{"default-shape", 50 * time.Millisecond, 2 * time.Second, 10},
		{"cap-at-power-of-two", 50 * time.Millisecond, 100 * time.Millisecond, 6},
		{"cap-between-doublings", 50 * time.Millisecond, 120 * time.Millisecond, 6},
		{"base-above-cap", 500 * time.Millisecond, 100 * time.Millisecond, 4},
		{"one-nanosecond-base", 1, 8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := transport.RetryPolicy{MaxAttempts: tc.attempts, BaseBackoff: tc.base, MaxBackoff: tc.max}
			rng := faultsim.NewRand(42)
			for attempt := 1; attempt <= tc.attempts; attempt++ {
				d := nominalBackoff(tc.base, tc.max, attempt)
				got := pol.Backoff(attempt, rng)
				if got < d/2 || got >= d {
					t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, got, d/2, d)
				}
				if got > tc.max {
					t.Errorf("attempt %d: backoff %v exceeds cap %v", attempt, got, tc.max)
				}
			}
		})
	}
}

// TestBackoffJitterSpreads: the jitter must actually spread across the
// [d/2, d) window, not cluster at an endpoint.
func TestBackoffJitterSpreads(t *testing.T) {
	pol := transport.RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	rng := faultsim.NewRand(7)
	lowHalf, highHalf := 0, 0
	for i := 0; i < 400; i++ {
		got := pol.Backoff(1, rng)
		switch {
		case got < 50*time.Millisecond || got >= 100*time.Millisecond:
			t.Fatalf("draw %d: %v outside [50ms, 100ms)", i, got)
		case got < 75*time.Millisecond:
			lowHalf++
		default:
			highHalf++
		}
	}
	if lowHalf == 0 || highHalf == 0 {
		t.Errorf("jitter degenerate: %d draws below the midpoint, %d above", lowHalf, highHalf)
	}
}

// TestBackoffDeterministic: the same seed yields the same schedule.
func TestBackoffDeterministic(t *testing.T) {
	pol := transport.RetryPolicy{BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}
	a, b := faultsim.NewRand(99), faultsim.NewRand(99)
	for attempt := 1; attempt <= 8; attempt++ {
		if x, y := pol.Backoff(attempt, a), pol.Backoff(attempt, b); x != y {
			t.Fatalf("attempt %d: %v vs %v from identical seeds", attempt, x, y)
		}
	}
}

// TestRetryPolicyDefaults: zero fields fill in; a zero policy is a
// single attempt, never zero.
func TestRetryPolicyDefaults(t *testing.T) {
	p := transport.RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 1 {
		t.Errorf("zero policy MaxAttempts = %d, want 1", p.MaxAttempts)
	}
	if p.BaseBackoff <= 0 || p.MaxBackoff <= 0 {
		t.Errorf("defaults left non-positive backoff: %+v", p)
	}
	p = transport.RetryPolicy{MaxAttempts: -3}.WithDefaults()
	if p.MaxAttempts != 1 {
		t.Errorf("negative MaxAttempts = %d after defaults, want 1", p.MaxAttempts)
	}
}

// TestQueryJitterSeedMixing: distinct query keys get distinct jitter
// streams; the same key replays the same stream.
func TestQueryJitterSeedMixing(t *testing.T) {
	a := transport.JitterSeed(1, "study=1/full")
	b := transport.JitterSeed(1, "study=2/full")
	if a == b {
		t.Error("different keys produced the same jitter seed")
	}
	if a != transport.JitterSeed(1, "study=1/full") {
		t.Error("same key produced different jitter seeds")
	}
	if a == transport.JitterSeed(2, "study=1/full") {
		t.Error("policy seed does not influence the jitter seed")
	}
}

// retryTestSystem builds a small system with an exact link fault
// schedule and the given retry policy.
func retryTestSystem(t *testing.T, pol transport.RetryPolicy, schedule []faultsim.Scheduled) (*System, *faultsim.Injector) {
	t.Helper()
	cfg := Config{
		Bits: 4, NumPET: 1, NumMRI: 0, Seed: 5,
		SmallStudies: true,
	}
	return newFaulty(t, cfg, &faultsim.Policy{Schedule: schedule}, WithRetry(pol))
}

// TestRetryStatsAccounting drops exactly the first two attempts and
// checks the stats to the nanosecond: Attempts counts every dial,
// Retries counts only the failed-then-retried ones, and BackoffSim is
// the exact jittered schedule replayed from the query's seed.
func TestRetryStatsAccounting(t *testing.T) {
	pol := transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 3}
	// One drop decision per request crossing: attempts 1 and 2 die on
	// the wire, attempt 3's request (op 3) and response (op 4) are clean.
	s, _ := retryTestSystem(t, pol, []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop},
		{Op: 2, Kind: faultsim.Drop},
	})
	spec := QuerySpec{StudyID: s.Studies[0].StudyID, Atlas: "Talairach", FullStudy: true}
	res, err := s.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Read.Attempts != 3 || res.Read.Retries != 2 {
		t.Errorf("Attempts/Retries = %d/%d, want 3/2", res.Read.Attempts, res.Read.Retries)
	}
	// Replay the jitter stream: the loop draws one backoff after each
	// failed attempt, from a stream seeded by (policy seed, request).
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := faultsim.NewRand(transport.JitterSeed(pol.Seed, string(request)))
	want := pol.Backoff(1, rng) + pol.Backoff(2, rng)
	if res.Read.BackoffSim != want {
		t.Errorf("BackoffSim = %v, want exactly %v", res.Read.BackoffSim, want)
	}
	// LastError keeps the most recent *failed* attempt even when a later
	// attempt succeeds — that is its documented contract.
	if !strings.Contains(res.Read.LastError, "drop") {
		t.Errorf("LastError = %q, want the dropped attempt's error", res.Read.LastError)
	}
	if got := s.Metrics.Counter("qbism_retries_total").Value(); got != 2 {
		t.Errorf("qbism_retries_total = %d, want 2", got)
	}
}

// TestRetryStatsExhaustion: when every attempt drops, the final error
// carries the stats — MaxAttempts dials, MaxAttempts-1 retries (the
// last failure is terminal, not retried), and a populated LastError.
func TestRetryStatsExhaustion(t *testing.T) {
	pol := transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 3}
	s, link := retryTestSystem(t, pol, []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop},
		{Op: 2, Kind: faultsim.Drop},
		{Op: 3, Kind: faultsim.Drop},
		{Op: 4, Kind: faultsim.Drop},
	})
	spec := QuerySpec{StudyID: s.Studies[0].StudyID, Atlas: "Talairach", FullStudy: true}
	_, err := s.RunQuery(spec)
	if err == nil {
		t.Fatal("query succeeded with every attempt dropped")
	}
	if !strings.Contains(err.Error(), "drop") {
		t.Errorf("exhaustion error does not name the fault: %v", err)
	}
	if got := s.Metrics.Counter("qbism_retries_total").Value(); got != 2 {
		t.Errorf("qbism_retries_total = %d, want 2 (third failure is terminal)", got)
	}
	if got := link.Count(faultsim.Drop); got != 3 {
		t.Errorf("injector dropped %d requests, want 3 (one per attempt)", got)
	}
}
