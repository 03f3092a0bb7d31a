package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedPass runs ops 0..n-1 once over a fixed set of clients, each of
// which takes the next operation only when its previous one completed
// (a closed loop). It returns the pass's wall time and every
// operation's latency in milliseconds, in operation order.
func closedPass(n, clients int, do func(client, i int)) (time.Duration, []float64) {
	lat := make([]float64, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				do(c, i)
				lat[i] = ms(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), lat
}

// The open loop's latency limit: a rung is within it when at most 5 %
// of its scheduled requests miss sloLatency from their due time
// (requests never sent, and failures, count as misses — this is
// "p95 ≤ limit" with the missing requests at infinity), the rate
// achieved keeps up with the rate offered, and nothing failed.
const (
	sloLatency      = 100 * time.Millisecond
	sloAchievedFrac = 0.97
)

// rung is the outcome of one fixed-rate step of the open loop.
type rung struct {
	Rate      float64
	Scheduled int
	Completed int
	Failed    int
	// Unsent requests were still waiting for a free connection when the
	// rung's time was up.
	Unsent int
	// Missed counts scheduled requests that did not complete within
	// sloLatency of their due time, for whatever reason.
	Missed int
	// LatencyMs holds one entry per scheduled request, measured from
	// the instant the request was due: a completed request's response
	// time including any wait behind a stalled predecessor, and for an
	// unsent one the wait it had already accumulated when the rung
	// ended (a lower bound).
	LatencyMs []float64
	// SendLateMs is how far behind its due time each sent request
	// started — the generator's own lateness plus queueing for a
	// connection.
	SendLateMs []float64
	// AchievedQPS is completions inside the rung's window per second.
	AchievedQPS float64
}

func (r rung) p50() float64 { return percentile(r.LatencyMs, 50) }
func (r rung) p95() float64 { return percentile(r.LatencyMs, 95) }

// inSLO reports whether the rung met the latency limit.
func (r rung) inSLO() bool {
	return r.Failed == 0 &&
		float64(r.Missed) <= 0.05*float64(r.Scheduled) &&
		r.AchievedQPS >= sloAchievedFrac*r.Rate
}

// openRung offers requests at a fixed rate for dur: request i is due at
// start + i/rate whether or not earlier ones have completed. Each of
// the conns connections carries one request at a time, taking the next
// due request as soon as it is free, so when the system falls behind,
// requests queue for a connection and their latency — always counted
// from the due time — grows with the backlog. do reports whether the
// request succeeded.
func openRung(rate float64, dur time.Duration, conns int, do func(conn, i int) bool) rung {
	n := int(rate * dur.Seconds())
	r := rung{Rate: rate, Scheduled: n, LatencyMs: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	deadline := start.Add(dur)

	// Per-request outcome, written by the one connection that took it.
	const (
		unsent = iota
		ok
		okLate // completed after the rung's window closed
		failed
	)
	outcome := make([]uint8, n)
	late := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				begin := time.Now()
				if !begin.Before(deadline) {
					continue // out of time: this and every later request stay unsent
				}
				late[i] = ms(begin.Sub(due))
				success := do(c, i)
				done := time.Now()
				r.LatencyMs[i] = ms(done.Sub(due))
				switch {
				case !success:
					outcome[i] = failed
				case done.After(deadline):
					outcome[i] = okLate
				default:
					outcome[i] = ok
				}
			}
		}(c)
	}
	wg.Wait()
	inWindow := 0
	for i, o := range outcome {
		switch o {
		case unsent:
			r.Unsent++
			r.Missed++
			r.LatencyMs[i] = ms(dur - time.Duration(i)*interval)
			continue
		case failed:
			r.Failed++
			r.Missed++
		default:
			r.Completed++
			if o == ok {
				inWindow++
			}
			if r.LatencyMs[i] > ms(sloLatency) {
				r.Missed++
			}
		}
		r.SendLateMs = append(r.SendLateMs, late[i])
	}
	r.AchievedQPS = float64(inWindow) / dur.Seconds()
	return r
}

// maxRateInSLO is the highest rung of the ladder that met the limit
// with every lower rung meeting it too (0 when the first one fails).
func maxRateInSLO(ladder []rung) float64 {
	best := 0.0
	for _, r := range ladder {
		if !r.inSLO() {
			break
		}
		best = r.Rate
	}
	return best
}
