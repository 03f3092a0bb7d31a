package medserver

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"qbism/internal/daemon"
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
		var p replyPool
		p.put(make([]byte, 7, tc.held))
		got := p.get(tc.want)
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
	var nilPool *replyPool
	nilPool.put(make([]byte, 64))
	if b := nilPool.get(64); len(b) != 64 || cap(b) != 64 {
		t.Errorf("nil pool: get(64) = len %d cap %d", len(b), cap(b))
	}
}

// TestReplyPoolBounds fills the list past its byte bound and one class
// past its slots: what would exceed either is dropped, and the held
// bytes stay the sum of what is held.
func TestReplyPoolBounds(t *testing.T) {
	var p replyPool
	const big = 3 << 20
	for i := 0; i < 4; i++ {
		p.put(make([]byte, big))
	}
	if want := 2 * big; p.bytes != want {
		t.Errorf("four %d-byte puts hold %d bytes, want %d (bound %d)", big, p.bytes, want, replyPoolBytes)
	}
	for i := 0; i < replySlots+3; i++ {
		p.put(make([]byte, 100))
	}
	if want := 2*big + replySlots*100; p.bytes != want || p.class[6].n != replySlots {
		t.Errorf("after %d small puts: %d bytes in %d slots, want %d in %d", replySlots+3, p.bytes, p.class[6].n, want, replySlots)
	}
	p.put(make([]byte, replyPoolBytes+1))
	if p.bytes > replyPoolBytes {
		t.Errorf("%d bytes held, bound %d", p.bytes, replyPoolBytes)
	}
}

// TestReplyPoolAllocFree: a get that hits and the put that returns its
// buffer allocate nothing.
func TestReplyPoolAllocFree(t *testing.T) {
	var p replyPool
	p.put(make([]byte, 300_000))
	got := testing.AllocsPerRun(100, func() {
		p.put(p.get(262_292))
	})
	if got != 0 {
		t.Errorf("%.0f allocs per get and put, want 0", got)
	}
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
	if held := srv.replies.bytes; held > replyPoolBytes || held == 0 {
		t.Errorf("free list holds %d bytes after the burst, want some and at most %d", held, replyPoolBytes)
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
