package qbism

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"qbism/internal/lfm"
)

// storeManifest lists everything a load leaves behind, one line per
// item: every catalog table's rows in stored order (long-field columns
// print their handle numbers), every long field's handle, size and
// SHA-256 as read back from the LFM, the device pages left free, the
// representation census and the study list. Two loads with the same
// manifest answer every query from the same bytes.
func storeManifest(t *testing.T, s *System) []string {
	t.Helper()
	var out []string
	tables := s.DB.TableNames()
	sort.Strings(tables)
	for _, name := range tables {
		rows, err := s.DB.Query("select * from " + name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("table %s %v", name, rows.Columns()))
		for i := 0; rows.Next(); i++ {
			var b strings.Builder
			fmt.Fprintf(&b, "%s[%d]", name, i)
			for _, v := range rows.Row() {
				fmt.Fprintf(&b, " %d:%s", v.T, v.String())
			}
			out = append(out, b.String())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}
	n := s.LFM.NumFields()
	for h := lfm.Handle(1); h <= lfm.Handle(n); h++ {
		data, err := s.LFM.Read(h)
		if err != nil {
			t.Fatalf("long field %d of %d: %v", h, n, err)
		}
		out = append(out, fmt.Sprintf("field %d: %d bytes, sha256 %x", h, len(data), sha256.Sum256(data)))
	}
	out = append(out, fmt.Sprintf("free pages %d of %d", s.LFM.FreePages(), s.LFM.Capacity()/s.LFM.PageSize()))
	bands := 0
	for _, specs := range s.BandRegions {
		bands += len(specs)
	}
	out = append(out, fmt.Sprintf("repr %s: %d bands", s.BandEncoding(), bands))
	for _, st := range s.Studies {
		out = append(out, fmt.Sprintf("study %+v", st))
	}
	return out
}

// loadManifest loads cfg with the given GOMAXPROCS and returns the
// store's manifest.
func loadManifest(t *testing.T, cfg Config, procs int) []string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	defer s.Close()
	return storeManifest(t, s)
}

// TestLoadByteIdentity is the loader's contract: what is stored does
// not depend on how many workers prepared it or how they were
// scheduled. Each configuration is loaded with one processor — the
// serial case — and with four, and the two stores must agree on every
// handle number, every long field's bytes, every catalog row in order,
// and the representation census.
func TestLoadByteIdentity(t *testing.T) {
	cases := map[string]Config{
		"bits5":            {Bits: 5},
		"bits5 extras raw": {Bits: 5, ExtraBandEncodings: true},
		"bits6":            {Bits: 6, NumPET: 2, NumMRI: 1},
		"bits6 extras raw": {Bits: 6, NumPET: 2, NumMRI: 1, ExtraBandEncodings: true},
		"bits5 shard":      {Bits: 5, OnlyStudies: []int{2, 6, 7}},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			serial, parallel := loadManifest(t, cfg, 1), loadManifest(t, cfg, 4)
			if len(serial) != len(parallel) {
				t.Errorf("manifests list %d and %d items", len(serial), len(parallel))
			}
			for i := 0; i < len(serial) && i < len(parallel); i++ {
				if serial[i] != parallel[i] {
					t.Fatalf("stores differ at item %d:\n  GOMAXPROCS=1: %s\n  GOMAXPROCS=4: %s", i, serial[i], parallel[i])
				}
			}
		})
	}
}

// TestLoadGoldenDigest pins the default Bits 5 store to the digest the
// last serial loader (PR 11, Skilling Hilbert code, uncached noise,
// per-band scans) produced for it. The loader's kernels promise the
// same bits, not just the same picture: a noise sum that drifts by one
// ULP, a curve that disagrees on one id, or a commit out of order
// changes this hash.
func TestLoadGoldenDigest(t *testing.T) {
	const want = "0bafa87ada5be8dfffd9171e92e7b8a59b194c4e50c226dd5cfb45afa1ea60f2"
	sum := sha256.Sum256([]byte(strings.Join(loadManifest(t, Config{Bits: 5}, runtime.GOMAXPROCS(0)), "\n")))
	if got := fmt.Sprintf("%x", sum); got != want {
		t.Errorf("Bits 5 store digest %s, pinned %s", got, want)
	}
}

// loaderGoroutines counts live goroutines inside the load pipeline: a
// runOrdered worker or a piece of a split loop.
func loaderGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	count := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "medserver.runOrdered") || strings.Contains(g, "par.For") {
			count++
		}
	}
	return count
}

// TestLoadFailureUnwinds fails loads part-way — a device that runs out
// of space at some study's commit, a grid too small to synthesize at
// the first study's prepare — and checks the error is the one the
// serial loop returned, whatever the worker count, and that no worker
// outlives New.
func TestLoadFailureUnwinds(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		check func(error) bool
	}{
		// 64 pages: the atlas and the first studies fit, a later one
		// does not. The serial loader returned Allocate's error bare.
		{"device full", Config{Bits: 5, DeviceBytes: 64 * lfm.DefaultPageSize},
			func(err error) bool { return err == lfm.ErrNoSpace }},
		{"atlas too small to sample", Config{Bits: 2},
			func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "synth: atlas side 4 too small")
			}},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			s, err := New(c.cfg)
			runtime.GOMAXPROCS(old)
			if s != nil || !c.check(err) {
				t.Errorf("%s, GOMAXPROCS=%d: New returned (%v, %v)", c.name, procs, s, err)
			}
			// wg.Wait has returned, but a goroutine past its deferred
			// Done may not have left the scheduler's books yet.
			deadline := time.Now().Add(5 * time.Second)
			for loaderGoroutines() != 0 {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%s, GOMAXPROCS=%d: loader goroutines outlive New:\n%s",
						c.name, procs, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
