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
// socket write (DESIGN.md §11). The client's is the request, the response
// buffer, the reply header (one object, its strings in its own room,
// DESIGN.md §14) and the decoded DataRegion. A frame copied on
// either side of the socket, a reply the daemon no longer releases, or a
// per-call allocation in the transport trips here before it reaches
// allocs_per_query.
func TestDaemonChainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per query from run to run")
	}
	srv, conn := chainDaemon(t)
	small, mixed, full := chainSpecs(srv)
	for _, tc := range []struct {
		name string
		spec qbism.QuerySpec
		// As measured: the request, the response buffer, the reply
		// header with the room its patient and date are decoded into,
		// the DataRegion with its Region, and the run list, which an
		// empty structure ∩ band answer does not have. Each was one more
		// while the header's strings shared a string of their own
		// (DESIGN.md §14), one more again while the server built every
		// reply in a new blob (§11), one more again while the header
		// copied each string apart (§14), one more again while the server
		// copied its reply into a frame of its own (§11), and one more
		// again while UnmarshalDataRegion allocated the DataRegion and
		// its Region apart.
		ceiling float64
	}{
		{"small-structure", small, 5},
		{"structure-and-band", mixed, 4},
		{"full-study", full, 5},
	} {
		got := bench.AllocsPerCall(t.Logf, 50, func() { chainQuery(t, conn, tc.spec) })
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
// client's share is its answer object (result, field, image header,
// request room and the room the reply header's strings are decoded
// into), the image's pixels and the response buffer, each kept by the
// result; the server's is nothing, since the daemon releases each reply
// once written and the next is built in it. The counts are exact means
// (bench.AllocsPerCall). A four-spec RunQueries on two workers over the
// same connection allocates the four response buffers, one slab of
// answers and one of pixels, the items and the pool. A per-query
// allocation back in the client, a frame copied on either side of the
// socket, a reply blob allocated per query again, or a batch that
// allocates each answer on its own trips here.
func TestDaemonClientAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per query from run to run")
	}
	srv, conn := chainDaemon(t)
	client := qbism.NewClient(conn, chainConfig)
	small, mixed, full := chainSpecs(srv)
	for _, tc := range []struct {
		name string
		spec qbism.QuerySpec
		// As measured: the answer, the pixels and the response buffer
		// (and the meta header's string, 4 a query, while it was a
		// string of its own, DESIGN.md §14; and the server's blob, 5 a
		// query, while every reply was a new buffer).
		ceiling float64
	}{
		{"small-structure", small, 3},
		{"structure-and-band", mixed, 3},
		{"full-study", full, 3},
	} {
		got := bench.AllocsPerCall(t.Logf, 50, func() {
			if _, err := client.RunQuery(tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.3f allocs per RunQuery", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.3f allocs per RunQuery, ceiling %.0f — does the client allocate its result's parts apart again?",
				tc.name, got, tc.ceiling)
		}
	}
	batch := []qbism.QuerySpec{small, mixed, full, small}
	if err := srv.ReserveExecutions(2); err != nil {
		t.Fatal(err)
	}
	got := bench.AllocsPerCall(t.Logf, 50, func() {
		items, _, _ := client.RunQueries(batch, 2)
		for _, item := range items {
			if item.Err != nil {
				t.Fatal(item.Err)
			}
		}
	})
	t.Logf("batch of 4 on 2 workers: %.3f allocs per RunQueries", got)
	if got > 10 { // as measured (16 while each answer and each image's pixels were allocated on their own)
		t.Errorf("%.3f allocs per 4-spec RunQueries over TCP, ceiling 10 — does the batch allocate each answer, or each image's pixels, on its own again?", got)
	}
}

// chainConfig is the server the daemon budgets and BenchmarkDaemonChain
// run against: Bits 5, untraced, its store held in the page cache.
var chainConfig = qbism.Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 4096}

// chainDaemon starts a daemon on 127.0.0.1 around a chainConfig server
// and dials it; the test's cleanup closes all three.
func chainDaemon(tb testing.TB) (*medserver.Server, *transport.TCP) {
	srv, err := medserver.New(chainConfig)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	d := New(srv, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	conn := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	tb.Cleanup(func() { conn.Close() })
	return srv, conn
}

// chainSpecs are the three shapes the daemon budgets hold: a small
// structure, the structure ∩ the study's widest band (an empty answer),
// and the full study.
func chainSpecs(srv *medserver.Server) (small, mixed, full qbism.QuerySpec) {
	study := srv.Studies[0].StudyID
	band := srv.BandRegions[study][len(srv.BandRegions[study])-1]
	small = qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"}
	mixed = small
	mixed.HasBand, mixed.BandLo, mixed.BandHi = true, int(band.Lo), int(band.Hi)
	full = qbism.QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true}
	return small, mixed, full
}

// chainQuery is one query as the repo benchmark's daemon workloads make
// it: EncodeQueryRequest, a transport.TCP call, DecodeQueryResponse and
// UnmarshalDataRegion.
func chainQuery(tb testing.TB, conn *transport.TCP, spec qbism.QuerySpec) {
	request, err := qbism.EncodeQueryRequest(spec)
	if err != nil {
		tb.Fatal(err)
	}
	response, err := conn.Call(nil, qbism.QueryMethod, request)
	if err != nil {
		tb.Fatal(err)
	}
	_, blob, err := qbism.DecodeQueryResponse(response)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := qbism.UnmarshalDataRegion(blob); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDaemonChain is chainQuery over loopback TCP on each of
// chainSpecs' shapes, both ends in this process: the four calls the
// repo benchmark's daemon workloads make per query. allocs/op is the
// count TestDaemonChainAllocBudget holds (the server's share is none);
// `make bench-smoke` prints it.
func BenchmarkDaemonChain(b *testing.B) {
	srv, conn := chainDaemon(b)
	small, mixed, full := chainSpecs(srv)
	for _, bc := range []struct {
		name string
		spec qbism.QuerySpec
	}{{"small-structure", small}, {"structure-and-band", mixed}, {"full-study", full}} {
		b.Run(bc.name, func(b *testing.B) {
			chainQuery(b, conn, bc.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chainQuery(b, conn, bc.spec)
			}
		})
	}
}

// BenchmarkDaemonBulk is one full-study query over loopback TCP, both
// ends in this process: a transport.TCP call to a daemon around a Bits 6
// server whose page cache holds a quarter of a VOLUME. Unlike the
// ServeRPC benchmarks, which call the handler directly, each reply here
// goes through transport.Server's write and release, so B/op is the
// client's response buffer, ≈ 1 × the reply, and the server's share is
// the reply it builds in the one released before it (DESIGN.md §11).
// Each reply is decoded as every client decodes it
// (DecodeQueryResponseInto, its header's strings into a room on the
// stack), so ns/op includes the one check of the reply's bytes, the
// sealed frame's CRC, and allocs/op stays the response buffer's one.
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
	var room [medserver.MetaRoom]byte
	for i := 0; i < b.N; i++ {
		response, err := conn.Call(nil, qbism.QueryMethod, request)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := medserver.DecodeQueryResponseInto(&room, response); err != nil {
			b.Fatal(err)
		}
	}
}
