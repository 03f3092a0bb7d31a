package lfm

import (
	"errors"
	"sync"
	"testing"

	"qbism/internal/obs"
)

// TestIOBillsOnlyItsOwnReads shares one manager among eight calls, each
// reading a different amount through its own IO at the same time: every
// bill must be what that call alone read, and the bills must sum to
// what the device meter counted meanwhile. With and without the page
// cache, whose hit/miss split is part of the bill.
func TestIOBillsOnlyItsOwnReads(t *testing.T) {
	for _, cachePages := range []int{0, 64} {
		m, err := New(1<<22, 4096)
		if err != nil {
			t.Fatal(err)
		}
		big, err := m.Allocate(make([]byte, 16*4096))
		if err != nil {
			t.Fatal(err)
		}
		small, err := m.Allocate(make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		m.EnableCache(cachePages)
		before := m.Stats()

		const calls = 8
		bills := make([]IO, calls)
		var wg sync.WaitGroup
		for c := range bills {
			bills[c] = IO{M: m, PerHandle: c%2 == 1}
			wg.Add(1)
			go func(c int, io *IO) {
				defer wg.Done()
				buf := make([]byte, 2*4096)
				for i := 0; i <= c; i++ {
					// Two pages of big and the one page of small a round.
					if err := io.ReadAtInto(big, uint64(i)*4096, buf); err != nil {
						t.Error(err)
					}
					if _, err := io.Read(small); err != nil {
						t.Error(err)
					}
				}
			}(c, &bills[c])
		}
		wg.Wait()

		var sum Stats
		for c := range bills {
			io := &bills[c]
			rounds := uint64(c + 1)
			if io.Reads != 2*rounds || io.BytesRead != rounds*(2*4096+100) {
				t.Errorf("cache=%d call %d: billed %d reads of %d bytes, made %d of %d",
					cachePages, c, io.Reads, io.BytesRead, 2*rounds, rounds*(2*4096+100))
			}
			// Unbuffered, every page touch is a device read; cached, it is a
			// hit or a miss and only misses are.
			touched := io.PageReads
			if cachePages > 0 {
				touched = io.CacheHits + io.CacheMisses
				if io.PageReads != io.CacheMisses {
					t.Errorf("call %d: %d page reads for %d cache misses", c, io.PageReads, io.CacheMisses)
				}
			}
			if touched != 3*rounds {
				t.Errorf("cache=%d call %d: billed %d page touches, made %d", cachePages, c, touched, 3*rounds)
			}
			sum.Add(io.Stats)

			root := obs.NewTracer().Start("call")
			io.Spans(root)
			if !io.PerHandle {
				if n := len(root.Children()); n != 0 {
					t.Errorf("call %d keeps no per-field bill and wrote %d spans", c, n)
				}
				continue
			}
			kids := root.Children()
			if len(kids) != 2 || kids[0].Name() != "lfm.read" {
				t.Fatalf("call %d: %d spans, want one lfm.read a field", c, len(kids))
			}
			if h, _ := kids[0].Int("handle"); Handle(h) != big {
				t.Errorf("call %d: first span is field %d, want the field read first (%d)", c, h, big)
			}
			if ops, _ := kids[1].Int("ops"); uint64(ops) != rounds {
				t.Errorf("call %d: %d ops on the small field, made %d", c, ops, rounds)
			}
			if got := uint64(root.SumInt("pages")); got != io.PageReads {
				t.Errorf("call %d: spans account %d pages, the bill %d", c, got, io.PageReads)
			}
		}
		if device := m.Stats().Sub(before); sum != device {
			t.Errorf("cache=%d: bills sum to %+v, the device counted %+v", cachePages, sum, device)
		}
	}
}

// TestIOBillsFailedReads: a read that fails its checksum still cost its
// pages, and the per-field bill says which field failed and how.
func TestIOBillsFailedReads(t *testing.T) {
	m, err := New(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	h, err := m.Allocate(make([]byte, 3*4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Corrupt(h, 5000, 0x10); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	io := IO{M: m, PerHandle: true}
	if _, err := io.Read(h); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of a rotten field: %v, want ErrChecksum", err)
	}
	if _, err := io.Read(h + 99); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("read of no field: %v", err)
	}
	if io.ChecksumFailures != 1 || io.Reads != 1 || io.PageReads != 3 || io.Stats != m.Stats() {
		t.Errorf("bill %+v, device %+v: want one failed 3-page read on both", io.Stats, m.Stats())
	}
	root := obs.NewTracer().Start("call")
	io.Spans(root)
	sp := root.Find("lfm.read")
	if n, _ := sp.Int("errors"); n != 1 {
		t.Errorf("span counts %d errors, want 1", n)
	}
	if n, _ := sp.Int("checksumFailures"); n != 1 {
		t.Errorf("span counts %d checksum failures, want 1", n)
	}
	if msg, _ := sp.Str("lastError"); msg == "" {
		t.Error("span carries no lastError")
	}

	io.Reset()
	if io.Stats != (Stats{}) || len(io.handles) != 0 || io.M != m || !io.PerHandle {
		t.Errorf("Reset left %+v", io)
	}
}
