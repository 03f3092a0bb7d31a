package medserver

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"qbism/internal/daemon"
	"qbism/internal/region"
	"qbism/internal/transport"
)

// TestReplyPoolSizeClasses holds get to its rule: a held buffer is
// handed out only when its capacity is at least what is asked and under
// twice that, and a miss is a new buffer of exactly the size asked.
func TestReplyPoolSizeClasses(t *testing.T) {
	for _, tc := range []struct {
		held, want int
		hit        bool
	}{
		{4096, 4096, true},
		{4096, 2049, true},
		{4096, 2048, false}, // 2 × 2048 is not under 2 × the need
		{4096, 4097, false}, // too small
		{6000, 3001, true},  // one class up from the need's
		{6000, 3000, false},
		{5000, 4097, true}, // the need's own class
		{1 << 21, 1<<21 - 1, true},
	} {
		var p freeList[byte]
		p.Put(make([]byte, 7, tc.held))
		got := p.Get(tc.want)
		if len(got) != tc.want {
			t.Errorf("held %d, get(%d): length %d", tc.held, tc.want, len(got))
		}
		if hit := cap(got) == tc.held; hit != tc.hit {
			t.Errorf("held %d, get(%d): hit %t, want %t", tc.held, tc.want, hit, tc.hit)
		}
		if !tc.hit && cap(got) != tc.want {
			t.Errorf("held %d, get(%d): a miss has capacity %d, want exactly %d", tc.held, tc.want, cap(got), tc.want)
		}
		want := tc.held
		if tc.hit {
			want = 0
		}
		if p.bytes != want {
			t.Errorf("held %d, get(%d): %d bytes held after, want %d", tc.held, tc.want, p.bytes, want)
		}
	}
	var nilPool *freeList[byte]
	nilPool.Put(make([]byte, 64))
	if b := nilPool.Get(64); len(b) != 64 || cap(b) != 64 {
		t.Errorf("nil pool: get(64) = len %d cap %d", len(b), cap(b))
	}
}

// TestReplyPoolBounds fills the list past its byte bound and one class
// past its slots: what would exceed either is dropped, and the held
// bytes stay the sum of what is held.
func TestReplyPoolBounds(t *testing.T) {
	var p freeList[byte]
	const big = 3 << 20
	for i := 0; i < 4; i++ {
		p.Put(make([]byte, big))
	}
	if want := 2 * big; p.bytes != want {
		t.Errorf("four %d-byte puts hold %d bytes, want %d (bound %d)", big, p.bytes, want, freeListBytes)
	}
	for i := 0; i < freeSlots+3; i++ {
		p.Put(make([]byte, 100))
	}
	if want := 2*big + freeSlots*100; p.bytes != want || p.class[6].n != freeSlots {
		t.Errorf("after %d small puts: %d bytes in %d slots, want %d in %d", freeSlots+3, p.bytes, p.class[6].n, want, freeSlots)
	}
	p.Put(make([]byte, freeListBytes+1))
	if p.bytes > freeListBytes {
		t.Errorf("%d bytes held, bound %d", p.bytes, freeListBytes)
	}
}

// TestReplyPoolAllocFree: a get that hits and the put that returns its
// buffer allocate nothing.
func TestReplyPoolAllocFree(t *testing.T) {
	var p freeList[byte]
	p.Put(make([]byte, 300_000))
	got := testing.AllocsPerRun(100, func() {
		p.Put(p.Get(262_292))
	})
	if got != 0 {
		t.Errorf("%.0f allocs per get and put, want 0", got)
	}
}

// TestFreeListRunLists: the one list type holds run lists by the rule it
// holds bytes by — size classes of capacity, a hit in [n, 2n) — and
// bounds them by their bytes, 16 a run. Under the race detector a run
// list put on it is poisoned, as a reply is.
func TestFreeListRunLists(t *testing.T) {
	var l freeList[region.Run]
	runs := make([]region.Run, 3, 5000)
	for i := range runs {
		runs[i] = region.Run{Lo: uint64(10 * i), Hi: uint64(10*i + 5)}
	}
	l.Put(runs)
	if l.bytes != 16*5000 {
		t.Errorf("a 5000-run list put: %d bytes held, want %d", l.bytes, 16*5000)
	}
	if poisonReleased {
		const p = 0xDBDBDBDBDBDBDBDB
		for i, r := range runs[:cap(runs)] {
			if r != (region.Run{Lo: p, Hi: p}) {
				t.Fatalf("run %d of a released list reads %v, want the poison", i, r)
			}
		}
	}
	if got := l.Get(2501); cap(got) != 5000 || len(got) != 2501 || l.bytes != 0 {
		t.Errorf("Get(2501): len %d cap %d, %d bytes left; want the 5000-run list and none", len(got), cap(got), l.bytes)
	}
	l.Put(make([]region.Run, freeListBytes/16+1))
	if l.bytes != 0 {
		t.Errorf("a run list over the %d-byte bound was held: %d bytes", freeListBytes, l.bytes)
	}
	if got := testing.AllocsPerRun(100, func() { l.Put(l.Get(4000)) }); got != 0 {
		t.Errorf("%.0f allocs per Get and Put of a run list, want 0", got)
	}
}

// TestFreeListBoundConcurrent is two requesters serving a paper-scale
// mix — every atlas structure, three boxes, the full study, every band,
// a structure ∩ band and the population query of every band — each reply
// released as the daemon releases it, while a third goroutine samples
// what the server's free lists hold. No list ever holds more than its
// bound, the run list holds what the call sites gave back, and every
// answer is byte-identical to the one served alone before the burst.
// Under -race every buffer put on a list is poisoned first, so a run
// list or reply still read after it went back fails the comparison.
func TestFreeListBoundConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a paper-scale server")
	}
	srv, err := New(Config{Bits: 7, NumPET: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	study := srv.Studies[0].StudyID
	type call struct {
		method  string
		request []byte
		want    []byte
	}
	var calls []call
	add := func(method string) func([]byte, error) {
		return func(request []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call{method: method, request: request})
		}
	}
	query, population := add(QueryMethod), add(PopulationMethod)
	spec := QuerySpec{StudyID: study, Atlas: "Talairach"}
	for _, st := range srv.Atlas.Structures {
		q := spec
		q.Structure = st.Name
		query(EncodeQueryRequest(q))
	}
	for _, box := range []*[6]uint32{{30, 30, 30, 100, 100, 100}, {40, 50, 60, 55, 65, 75}, {20, 24, 28, 99, 103, 107}} {
		q := spec
		q.Box = box
		query(EncodeQueryRequest(q))
	}
	full := spec
	full.FullStudy = true
	query(EncodeQueryRequest(full))
	for _, b := range srv.BandRegions[study] {
		q := spec
		q.HasBand, q.BandLo, q.BandHi = true, int(b.Lo), int(b.Hi)
		query(EncodeQueryRequest(q))
		population(EncodePopulationRequestInto(nil, &PopulationQuery{Studies: []int{study}, BandLo: q.BandLo, BandHi: q.BandHi}))
		if b.Lo == 0 {
			q.Structure = "ntal1"
			query(EncodeQueryRequest(q))
		}
	}
	// The oracle: each call served alone, its reply kept.
	for i := range calls {
		if calls[i].want, err = srv.ServeRPC(nil, calls[i].method, calls[i].request); err != nil {
			t.Fatal(err)
		}
	}

	lists := func() (bytes, runs, words int) {
		for _, l := range []struct {
			mu *sync.Mutex
			n  *int
			v  *int
		}{{&srv.free.bytes.mu, &srv.free.bytes.bytes, &bytes}, {&srv.free.runs.mu, &srv.free.runs.bytes, &runs}, {&srv.free.words.mu, &srv.free.words.bytes, &words}} {
			l.mu.Lock()
			*l.v = *l.n
			l.mu.Unlock()
		}
		return
	}
	const requesters, passes = 2, 4
	var wg sync.WaitGroup
	errs := make(chan error, requesters)
	for r := range requesters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range passes {
				for j := range calls {
					// The two requesters walk the mix in opposite orders.
					c := calls[j]
					if r == 1 {
						c = calls[len(calls)-1-j]
					}
					resp, err := srv.ServeRPC(nil, c.method, c.request)
					if err == nil && (c.method == PopulationMethod && !bytes.Equal(resp, c.want) || c.method == QueryMethod && !sameAnswer(resp, c.want)) {
						err = fmt.Errorf("pass %d: an answer differs from the one served alone", p)
					}
					if err != nil {
						errs <- fmt.Errorf("requester %d: %w", r, err)
						return
					}
					srv.ReleaseReply(resp)
				}
			}
		}()
	}
	finished, sampled := make(chan struct{}), make(chan struct{})
	var most [3]int
	go func() {
		defer close(sampled)
		for {
			b, r, w := lists()
			most = [3]int{max(most[0], b), max(most[1], r), max(most[2], w)}
			select {
			case <-finished:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	wg.Wait()
	close(finished)
	<-sampled
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	b, r, w := lists()
	for i, held := range [...]int{b, r, w, most[0], most[1], most[2]} {
		if held > freeListBytes {
			t.Errorf("list %d held %d bytes, bound %d", i%3, held, freeListBytes)
		}
	}
	if r == 0 {
		t.Error("no run list was given back: do the call sites still drop their large run lists?")
	}
	t.Logf("held at the end: %d B of replies, %d B of run lists, %d B of words; at most %d, %d and %d", b, r, w, most[0], most[1], most[2])
}

// sameAnswer reports whether two medical-query replies carry the same
// answer: the same meta header but for the measured time, and the same
// DATA_REGION.
func sameAnswer(got, want []byte) bool {
	a, err := answerOf(got)
	if err != nil {
		return false
	}
	b, err := answerOf(want)
	return err == nil && a.equal(b)
}

// TestReplyPoolBound is a burst of full-study and small replies from a
// paper-scale server over eight loopback TCP connections to a daemon:
// more full-study replies are in flight at once than the free list may
// hold. Every answer is byte-identical to the same request served in
// process before the daemon started, the list holds at most its bound
// once the burst is over, and no goroutine outlives the daemon's Close.
// Under -race every released buffer is poisoned first (poison_race.go),
// so a reply still read after its release fails the comparison.
func TestReplyPoolBound(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a paper-scale server")
	}
	srv, err := New(Config{Bits: 7, NumPET: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	study := srv.Studies[0].StudyID
	specs := []QuerySpec{
		{StudyID: study, Atlas: "Talairach", FullStudy: true},
		{StudyID: study, Atlas: "Talairach", Structure: "putamen"},
		{StudyID: study, Atlas: "Talairach", Structure: "ntal1"},
		{StudyID: study, Atlas: "Talairach", Box: &[6]uint32{30, 30, 30, 100, 100, 100}},
	}
	// The oracle: each spec served in process, its reply kept.
	requests := make([][]byte, len(specs))
	want := make([]answer, len(specs))
	for i, spec := range specs {
		if requests[i], err = EncodeQueryRequest(spec); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.ServeRPC(nil, QueryMethod, requests[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = answerOf(resp); err != nil {
			t.Fatal(err)
		}
	}
	if len(want[0].blob) < 1<<21 {
		t.Fatalf("full-study reply is %d bytes, want a Bits 7 VOLUME's 2 MiB", len(want[0].blob))
	}

	goroutines := runtime.NumGoroutine()
	d := daemon.New(srv, daemon.Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	const conns, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
			defer conn.Close()
			for r := 0; r < rounds; r++ {
				// Every connection asks for the full study each round, so
				// eight 2 MiB replies can be in flight against a bound of
				// four; the small ones come between, in a per-connection
				// order.
				for _, i := range []int{0, 1 + (c+r)%3, 0, 1 + (c+r+1)%3} {
					resp, err := conn.Call(nil, QueryMethod, requests[i])
					if err != nil {
						errs <- fmt.Errorf("conn %d: %s: %w", c, specs[i].Label(), err)
						return
					}
					got, err := answerOf(resp)
					if err != nil {
						errs <- fmt.Errorf("conn %d: %s: %w", c, specs[i].Label(), err)
						return
					}
					if !got.equal(want[i]) {
						errs <- fmt.Errorf("conn %d: %s: answer over TCP differs from the in-process one", c, specs[i].Label())
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := d.Close(); err != nil {
		t.Error(err)
	}
	if held := srv.free.bytes.bytes; held > freeListBytes || held == 0 {
		t.Errorf("free list holds %d bytes after the burst, want some and at most %d", held, freeListBytes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before Start:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// answer is a reply's meta header, its measured time cleared, and a copy
// of its DATA_REGION.
type answer struct {
	meta QueryMeta
	blob []byte
}

// answerOf decodes a reply and checks that it is, byte for byte, the
// frame EncodeQueryResponse builds from what it decodes to.
func answerOf(resp []byte) (answer, error) {
	meta, blob, err := DecodeQueryResponse(resp)
	if err != nil {
		return answer{}, err
	}
	a := answer{meta: *meta, blob: bytes.Clone(blob)}
	frame, err := EncodeQueryResponse(meta, bytes.Clone(blob))
	if err != nil {
		return answer{}, err
	}
	if !bytes.Equal(frame, resp) {
		return answer{}, fmt.Errorf("reply is not the frame EncodeQueryResponse builds from its meta and blob")
	}
	a.meta.DBCPUNanos = 0
	return a, nil
}

func (a answer) equal(b answer) bool { return a.meta == b.meta && bytes.Equal(a.blob, b.blob) }
