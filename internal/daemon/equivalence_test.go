package daemon

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qbism/internal/medserver"
	"qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/transport"
)

// The loopback equivalence suite: the Table 3 queries plus Table
// 4-style band sweeps, run once through the in-process simulated
// transport and once over real TCP to a daemon on 127.0.0.1 — the
// answers must be byte-identical. This is the transport seam's central
// promise: moving the MedicalServer to the other end of a socket
// changes where the bytes travel, never what they say.

var (
	sysOnce sync.Once
	sysInst *qbism.System
	sysErr  error
)

var testConfig = qbism.Config{
	Bits:         5,
	NumPET:       3,
	NumMRI:       1,
	Seed:         7,
	SmallStudies: true,
	WithMeshes:   true,
}

func testSystem(t *testing.T) *qbism.System {
	t.Helper()
	sysOnce.Do(func() { sysInst, sysErr = qbism.New(testConfig) })
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

// equivalenceSpecs is the comparison suite: Table 3's six single-study
// queries plus a Table 4-style top-band sweep across every PET study
// under both band labels: the default k³-tree and the forced h-naive,
// its synonym.
func equivalenceSpecs(s *qbism.System) []qbism.QuerySpec {
	specs := s.Table3Queries()
	topLo := 256 - s.Cfg.BandWidth
	for _, study := range s.PETStudyIDs() {
		specs = append(specs,
			qbism.QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: topLo, BandHi: 255},
			qbism.QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: topLo, BandHi: 255, Encoding: qbism.EncHilbertNaive},
		)
	}
	return specs
}

func runSuite(t *testing.T, s *qbism.Client, specs []qbism.QuerySpec) []*qbism.QueryResult {
	t.Helper()
	results := make([]*qbism.QueryResult, len(specs))
	for i, spec := range specs {
		res, err := s.RunQuery(spec)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, spec.Label(), err)
		}
		results[i] = res
	}
	return results
}

// comparableMeta strips the fields that legitimately differ between
// runs: DBCPUNanos is measured handler wall time.
func comparableMeta(m qbism.QueryMeta) qbism.QueryMeta {
	m.DBCPUNanos = 0
	return m
}

// sameAnswers holds a run of the suite to the baseline: meta, DataRegion
// and rendered image byte for byte.
func sameAnswers(t *testing.T, specs []qbism.QuerySpec, baseline, wire []*qbism.QueryResult) {
	t.Helper()
	for i := range specs {
		label := specs[i].Label()
		if lm, wm := comparableMeta(baseline[i].Meta), comparableMeta(wire[i].Meta); !reflect.DeepEqual(lm, wm) {
			t.Errorf("%s: meta diverged across the wire:\nlocal: %+v\nwire:  %+v", label, lm, wm)
		}
		ld, lerr := baseline[i].Data()
		wd, werr := wire[i].Data()
		if lerr != nil || werr != nil || !reflect.DeepEqual(ld, wd) {
			t.Errorf("%s: DataRegion diverged across the wire", label)
		}
		if !reflect.DeepEqual(baseline[i].Image, wire[i].Image) {
			t.Errorf("%s: rendered image diverged across the wire", label)
		}
	}
}

func TestLoopbackEquivalence(t *testing.T) {
	sys := testSystem(t)
	specs := equivalenceSpecs(sys)

	// Baseline: the default in-process simulated transport.
	baseline := runSuite(t, sys.Client, specs)

	// Stand up a daemon serving this same system's handler, and put a
	// client in front of it over real TCP.
	d := New(sys, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcp := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer tcp.Close()

	sameAnswers(t, specs, baseline, runSuite(t, qbism.NewClient(tcp, testConfig), specs))

	// The wire run really crossed the socket.
	if got, want := d.Stats().Calls, uint64(len(specs)); got < want {
		t.Errorf("daemon served %d calls, want >= %d — the wire run did not use TCP", got, want)
	}

	// The two halves as two processes would hold them: a daemon around a
	// bare server loaded from the same configuration, and a bare client
	// over a dialed transport — neither ever part of a System. This server
	// sends its REGIONs as naive runs rather than the default Elias γ, so
	// both wire codecs cross a real socket and decode to the same answers.
	naive := testConfig
	naive.Method = rencode.Naive
	srv, err := medserver.New(naive)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bare := New(srv, Config{Addr: "127.0.0.1:0"})
	if err := bare.Start(); err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	dialed := transport.DialTCP(bare.Addr().String(), transport.TCPOptions{})
	defer dialed.Close()
	client := qbism.NewClient(dialed, testConfig)

	sameAnswers(t, specs, baseline, runSuite(t, client, specs))
	if got, want := bare.Stats().Calls, uint64(len(specs)); got != want {
		t.Errorf("the bare server's daemon served %d calls, want %d", got, want)
	}
}

// transportGoroutines counts the live goroutines running the transport's
// code or a daemon's.
func transportGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "qbism/internal/transport.") || strings.Contains(g, "qbism/internal/daemon.(*Daemon)") {
			n++
		}
	}
	return n
}

// TestPopulationOverTCP: the population query over real TCP — a
// NewClient over a dialed transport to a daemon serving the same system
// on 127.0.0.1 — answers every stored band of the PET studies, under
// both band labels, with the REGION the system's own client gets over
// its simulated link, which is the in-memory intersection of the band
// REGIONs the loader kept; and once the daemon and the connection are
// closed, no goroutine of the transport or the daemon is left running.
func TestPopulationOverTCP(t *testing.T) {
	sys := testSystem(t)
	before := transportGoroutines()
	d := New(sys, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	tcp := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	client := qbism.NewClient(tcp, testConfig)

	pets := sys.PETStudyIDs()
	for bi, b := range sys.BandRegions[pets[0]] {
		var operands []*region.Region
		for _, id := range pets {
			operands = append(operands, sys.BandRegions[id][bi].Region)
		}
		want, err := region.IntersectN(operands...)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []string{"", qbism.EncHilbertNaive} {
			local, err := sys.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 1)
			if err != nil {
				t.Fatal(err)
			}
			wire, partial, err := client.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 1)
			if err != nil || partial != nil {
				t.Fatalf("band %d-%d %q over TCP: %v (partial %v)", b.Lo, b.Hi, enc, err, partial)
			}
			if !local.Equal(want) || !wire.Equal(want) {
				t.Errorf("band %d-%d %q: %d voxels over the simulated link, %d over TCP, %d in memory",
					b.Lo, b.Hi, enc, local.NumVoxels(), wire.NumVoxels(), want.NumVoxels())
			}
		}
	}
	if got, want := d.Stats().Calls, uint64(2*len(sys.BandRegions[pets[0]])); got != want {
		t.Errorf("the daemon served %d calls, want %d: one per band and label", got, want)
	}

	if transportGoroutines() <= before {
		t.Fatal("no transport goroutine while the daemon serves: the scan below would prove nothing")
	}
	if err := tcp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for transportGoroutines() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d transport or daemon goroutines outlive the calls, %d before:\n%s",
				transportGoroutines(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
