package daemon

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"qbism/internal/medserver"
	"qbism/internal/qbism"
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
// on both stored band rows: the default k³-tree and the forced h-naive.
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
	tcp := transport.DialTCP(d.Addr().String(), transport.TCPOptions{CallTimeout: 30 * time.Second})
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
	dialed := transport.DialTCP(bare.Addr().String(), transport.TCPOptions{CallTimeout: 30 * time.Second})
	defer dialed.Close()
	client := qbism.NewClient(dialed, testConfig)

	sameAnswers(t, specs, baseline, runSuite(t, client, specs))
	if got, want := bare.Stats().Calls, uint64(len(specs)); got != want {
		t.Errorf("the bare server's daemon served %d calls, want %d", got, want)
	}
}
