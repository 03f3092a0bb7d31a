package daemon

import (
	"testing"

	"qbism/internal/bench"
	"qbism/internal/medserver"
	"qbism/internal/qbism"
	"qbism/internal/transport"
)

// TestDaemonChainAllocBudget pins the allocations per query of the chain
// the repo benchmark's daemon workloads run, both ends in this process:
// EncodeQueryRequest, a transport.TCP call to a daemon on 127.0.0.1,
// DecodeQueryResponse and UnmarshalDataRegion. The server's share is
// nothing: it builds each reply in one the daemon released after its
// socket write (DESIGN.md §59). The client's is the request, the response
// buffer, the reply header and the decoded DataRegion. A frame copied on
// either side of the socket, a reply the daemon no longer releases, or a
// per-call allocation in the transport trips here before it reaches
// allocs_per_query.
func TestDaemonChainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per query from run to run")
	}
	cfg := qbism.Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 4096}
	srv, err := medserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := New(srv, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer conn.Close()

	study := srv.Studies[0].StudyID
	band := srv.BandRegions[study][len(srv.BandRegions[study])-1]
	for _, tc := range []struct {
		name string
		spec qbism.QuerySpec
		// As measured: the request, the response buffer, the reply
		// header and the one string its patient and date share, the
		// DataRegion with its Region, and the run list, which an empty
		// structure ∩ band answer does not have. Each was one more while
		// the server built every reply in a new blob (DESIGN.md §59), one
		// more again while the header copied each string apart (§49), one
		// more again while the server copied its reply into a frame of its
		// own (§47), and one more again while UnmarshalDataRegion
		// allocated the DataRegion and its Region apart.
		ceiling float64
	}{
		{"small-structure", qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"}, 6},
		{"structure-and-band", qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen",
			HasBand: true, BandLo: int(band.Lo), BandHi: int(band.Hi)}, 5},
		{"full-study", qbism.QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true}, 6},
	} {
		got := bench.AllocsPerCall(t.Logf, 50, func() {
			request, err := qbism.EncodeQueryRequest(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			response, err := conn.Call(nil, qbism.QueryMethod, request)
			if err != nil {
				t.Fatal(err)
			}
			_, blob, err := qbism.DecodeQueryResponse(response)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qbism.UnmarshalDataRegion(blob); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.3f allocs per query", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.3f allocs per query, ceiling %.0f — is a frame copied, or a per-call buffer allocated, on either side of the socket again?",
				tc.name, got, tc.ceiling)
		}
	}
}

// TestDaemonClientAllocBudget pins the allocations per RunQuery of the
// qbism -addr path: a DX client built by NewClient over a transport.TCP
// connection to a daemon on 127.0.0.1, both ends in this process. The
// client's share is its answer object (result, field, image header and
// request room), the image's pixels, the meta header's one string and
// the response buffer; the server's is nothing, since the daemon
// releases each reply once written and the next is built in it. A
// per-query allocation back in the client, a frame copied on either side
// of the socket, or a reply blob allocated per query again trips here.
func TestDaemonClientAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per query from run to run")
	}
	cfg := qbism.Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 4096}
	srv, err := medserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := New(srv, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer conn.Close()
	client := qbism.NewClient(conn, cfg)

	study := srv.Studies[0].StudyID
	band := srv.BandRegions[study][len(srv.BandRegions[study])-1]
	for _, tc := range []struct {
		name string
		spec qbism.QuerySpec
		// As measured: the answer, the pixels, the meta string and the
		// response buffer (and the server's blob, 5 a query, while every
		// reply was a new buffer).
		ceiling float64
	}{
		{"small-structure", qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"}, 4},
		{"structure-and-band", qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen",
			HasBand: true, BandLo: int(band.Lo), BandHi: int(band.Hi)}, 4},
		{"full-study", qbism.QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true}, 4},
	} {
		got := testing.AllocsPerRun(50, func() {
			if _, err := client.RunQuery(tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per RunQuery", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per RunQuery, ceiling %.0f — does the client allocate its result's parts apart again?",
				tc.name, got, tc.ceiling)
		}
	}
}

// BenchmarkDaemonBulk is one full-study query over loopback TCP, both
// ends in this process: a transport.TCP call to a daemon around a Bits 6
// server whose page cache holds a quarter of a VOLUME. Unlike the
// ServeRPC benchmarks, which call the handler directly, each reply here
// goes through transport.Server's write and release, so B/op is the
// client's response buffer, ≈ 1 × the reply, and the server's share is
// the reply it builds in the one released before it (DESIGN.md §59).
// `make bench-smoke` runs a few iterations.
func BenchmarkDaemonBulk(b *testing.B) {
	srv, err := medserver.New(qbism.Config{Bits: 6, NumPET: 1, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	d := New(srv, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	conn := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer conn.Close()
	request, err := qbism.EncodeQueryRequest(qbism.QuerySpec{StudyID: srv.Studies[0].StudyID, Atlas: "Talairach", FullStudy: true})
	if err != nil {
		b.Fatal(err)
	}
	response, err := conn.Call(nil, qbism.QueryMethod, request)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(response)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(nil, qbism.QueryMethod, request); err != nil {
			b.Fatal(err)
		}
	}
}
