package qbism

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"qbism/internal/experiments"
	"qbism/internal/lfm"
	"qbism/internal/medserver"
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
	out = append(out, fmt.Sprintf("repr %s: %d bands", medserver.EncK3Tree, bands))
	for _, st := range s.Studies {
		out = append(out, fmt.Sprintf("study %+v", st))
	}
	return out
}

// loadManifest loads cfg with the given GOMAXPROCS, with Table 4's
// extra rows stored after the load when extras is set, and returns the
// store's manifest.
func loadManifest(t *testing.T, cfg Config, procs int, extras bool) []string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	defer s.Close()
	if extras {
		if err := experiments.StoreTable4Rows(s.Server); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
	return storeManifest(t, s)
}

// TestLoadByteIdentity is the loader's contract: what is stored does
// not depend on how many workers prepared it or how they were
// scheduled. Each configuration is loaded with one processor — the
// serial case — and with four, and the two stores must agree on every
// handle number, every long field's bytes, every catalog row in order,
// and the representation census. The extras cases also store Table 4's
// z-naive and octant rows after the load.
func TestLoadByteIdentity(t *testing.T) {
	cases := map[string]struct {
		cfg    Config
		extras bool
	}{
		"bits5":            {Config{Bits: 5}, false},
		"bits5 extras raw": {Config{Bits: 5}, true},
		"bits6":            {Config{Bits: 6, NumPET: 2, NumMRI: 1}, false},
		"bits6 extras raw": {Config{Bits: 6, NumPET: 2, NumMRI: 1}, true},
		"bits5 shard":      {Config{Bits: 5, OnlyStudies: []int{2, 6, 7}}, false},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			serial, parallel := loadManifest(t, c.cfg, 1, c.extras), loadManifest(t, c.cfg, 4, c.extras)
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
// changes this hash. The store it pins keeps each band once (DESIGN.md
// §11): it is the last two-row store's manifest with every h-naive row
// given its k³-tree twin's handle, the 64 h-naive fields dropped, the
// rest renumbered in order and their 78 pages free — nothing else moved.
// The device is its configured size rounded up to whole pages, and its
// free pages are those past the last field (DESIGN.md §9).
func TestLoadGoldenDigest(t *testing.T) {
	const want = "a60e25cc5457ba835a3f94d5d32b8f841e8d04e9dab27bf3be9a186622111b23"
	sum := sha256.Sum256([]byte(strings.Join(loadManifest(t, Config{Bits: 5}, runtime.GOMAXPROCS(0), false), "\n")))
	if got := fmt.Sprintf("%x", sum); got != want {
		t.Errorf("Bits 5 store digest %s, pinned %s", got, want)
	}
}

// TestLoadPageCensus pins the device pages a Bits 6 store holds, by
// the kind of field that owns them. Each long field holds the pages its
// bytes span, at least one, and the next field starts on the page after
// them (DESIGN.md §9). The band fields are counted once, though two
// rows, h-naive and k3-tree, point at each; the h-naive fields the store
// kept until each band was stored once held 212 pages more, 805 in all.
func TestLoadPageCensus(t *testing.T) {
	s, err := New(Config{Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ps := s.LFM.PageSize()
	held := func(query string) uint64 {
		t.Helper()
		rows, err := s.DB.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var pages uint64
		for rows.Next() {
			for _, v := range rows.Row() {
				if v.IsNull() {
					continue
				}
				size, err := s.LFM.Size(v.L)
				if err != nil {
					t.Fatal(err)
				}
				pages += max(1, (size+ps-1)/ps)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return pages
	}
	got := []uint64{
		held("select data from warpedVolume") + held("select data from rawVolume"),
		held("select region from intensityBand where encoding = '" + medserver.EncK3Tree + "'"),
		held("select region, surface from atlasStructure"),
	}
	want := []uint64{512, 70, 11}
	if !slices.Equal(got, want) {
		t.Errorf("pages held by VOLUME / band / structure fields: %v, want %v", got, want)
	}
	if synonym := held("select region from intensityBand where encoding = '" + medserver.EncHilbertNaive + "'"); synonym != got[1] {
		t.Errorf("the h-naive rows point at %d pages, the k3-tree rows at %d: not the same fields", synonym, got[1])
	}
	var sum uint64
	for _, n := range got {
		sum += n
	}
	inUse := s.LFM.Capacity()/ps - s.LFM.FreePages()
	if sum != inUse || inUse != 593 {
		t.Errorf("fields hold %d pages, the device has %d in use; want 593 and 593", sum, inUse)
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

// TestLoadFailureUnwinds fails a load part-way — a grid too small to
// synthesize at the first study's prepare — and checks the error is the
// one the serial loop returned, whatever the worker count, and that no
// worker outlives New. A commit that fails part-way is
// TestRunOrderedCommitFailureUnwinds (internal/medserver): the device is
// sized from the corpus, so a load cannot be made to fill it.
func TestLoadFailureUnwinds(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		check func(error) bool
	}{
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
