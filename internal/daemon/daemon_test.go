package daemon

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qbism/internal/lfm"
	"qbism/internal/medserver"
	"qbism/internal/obs"
	"qbism/internal/qbism"
	"qbism/internal/transport"
)

func startDaemon(t *testing.T, cfg Config) (*Daemon, *qbism.System) {
	t.Helper()
	sys := testSystem(t)
	cfg.Addr = "127.0.0.1:0"
	d := New(sys, cfg)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, sys
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoint: /metrics serves the system registry in Prometheus
// text format including the transport server's counters; /healthz
// answers ok while serving.
func TestAdminEndpoint(t *testing.T) {
	d, sys := startDaemon(t, Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + d.AdminAddr().String()

	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}

	// Drive one RPC so the transport counters exist in the registry.
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer c.Close()
	req, err := qbism.EncodeQueryRequest(sys.Table3Queries()[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(nil, qbism.QueryMethod, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := qbism.DecodeQueryResponse(resp); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{"transport_server_calls_total", "transport_server_call_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestDaemonDrainFlipsHealth: Drain turns /healthz into 503 and leaves
// the admin endpoint up until the RPC drain completes.
func TestDaemonDrainFlipsHealth(t *testing.T) {
	d, _ := startDaemon(t, Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + d.AdminAddr().String()
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The admin server is closed after a completed drain; a request
	// must fail rather than report healthy.
	if resp, err := http.Get(base + "/healthz"); err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("healthz still ok after drain")
		}
	}
	// New RPC dials are refused.
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer c.Close()
	if _, err := c.Call(nil, "anything", nil); !errors.Is(err, transport.ErrDial) {
		t.Errorf("call after drain: %v, want ErrDial", err)
	}
}

// TestDaemonUnknownMethodOverWire: a version-skewed client gets the
// typed terminal refusal end to end.
func TestDaemonUnknownMethodOverWire(t *testing.T) {
	d, _ := startDaemon(t, Config{})
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer c.Close()
	_, err := c.Call(nil, "medicalQuery/v99", nil)
	if !errors.Is(err, transport.ErrUnknownMethod) {
		t.Errorf("unknown method over the wire: %v", err)
	}
	if transport.RetryableError(err) {
		t.Error("unknown method must be terminal")
	}
}

// flakyBackend fails its first calls with a device read fault, classified
// as the server classifies one (retryable, transport.ErrRemote), then
// serves Backend.
type flakyBackend struct {
	Backend
	failures atomic.Int32
}

func (f *flakyBackend) ServeRPC(sp *obs.Span, method string, request []byte) ([]byte, error) {
	if f.failures.Add(-1) >= 0 {
		return nil, fmt.Errorf("daemon test: %w: %w", transport.ErrRemote, lfm.ErrReadFault)
	}
	return f.Backend.ServeRPC(sp, method, request)
}

// TestClientRetryOverTCP: a Client over a real socket rides out
// server-side transient failures with the same read loop it runs over
// the simulated link — the answer is the in-process one, and the read
// records every attempt, the failure it cured, its backoff and its bill.
func TestClientRetryOverTCP(t *testing.T) {
	sys := testSystem(t)
	spec := sys.Table3Queries()[0]
	want, err := sys.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	backend := &flakyBackend{Backend: sys}
	backend.failures.Store(2)
	d := New(backend, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcp := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer tcp.Close()
	retry := qbism.WithRetry(transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: 5})

	got, err := qbism.NewClient(tcp, testConfig, retry).RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, []qbism.QuerySpec{spec}, []*qbism.QueryResult{want}, []*qbism.QueryResult{got})
	read := got.Read
	if read.Node != "s0p" || read.Attempts != 3 || read.Retries != 2 || read.BackoffSim <= 0 {
		t.Errorf("read %+v, want three attempts on s0p, two retried with backoff", read)
	}
	if !strings.Contains(read.LastError, lfm.ErrReadFault.Error()) {
		t.Errorf("LastError = %q, want the server's read fault", read.LastError)
	}
	// Every attempt put its request and a reply on the wire.
	if calls := d.Stats().Calls; calls != 3 || got.Timing.NetMessages != 6 {
		t.Errorf("daemon served %d calls, query billed %d messages; want 3 and 6", calls, got.Timing.NetMessages)
	}
}

// TestAdminFailureReported: an admin endpoint that stops serving
// underneath a running daemon — here its listener is closed out from
// under it — is not lost: the next Drain or Close returns the error, and
// the RPC side was still serving until then.
func TestAdminFailureReported(t *testing.T) {
	d, _ := startDaemon(t, Config{AdminAddr: "127.0.0.1:0"})
	if err := d.adminLn.Close(); err != nil {
		t.Fatal(err)
	}
	// Let the admin goroutine see its listener die before Close shuts the
	// server down: a Serve that first notices at Close reports a clean stop.
	for deadline := time.Now().Add(10 * time.Second); len(d.adminDone) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer c.Close()
	if _, err := c.Call(nil, "medicalQuery/v99", nil); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Errorf("RPC after the admin listener died: %v, want the server's refusal", err)
	}
	err := d.Close()
	if err == nil || !strings.Contains(err.Error(), "admin endpoint stopped serving") {
		t.Errorf("Close after the admin listener died: %v, want the admin endpoint's error", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v, want the failure reported once", err)
	}
}

// TestDrainAndCloseConcurrently: a Drain racing a Close (a signal
// handler and a deferred Close, say) is safe under -race, both return,
// and a healthy admin endpoint is reported by neither.
func TestDrainAndCloseConcurrently(t *testing.T) {
	for i := 0; i < 20; i++ {
		d, _ := startDaemon(t, Config{AdminAddr: "127.0.0.1:0"})
		errs := make(chan error, 2)
		go func() { errs <- d.Drain(5 * time.Second) }()
		go func() { errs <- d.Close() }()
		for j := 0; j < 2; j++ {
			if err := <-errs; err != nil {
				t.Errorf("round %d: %v", i, err)
			}
		}
	}
}

// TestRottedPageRefusedOverTCP: a server built as cmd/qbismd builds it —
// its Config from the command's flags, no integrity setting — verifies
// every page it reads. A VOLUME page that rots at rest fails its
// checksum on the store's re-read too, so it reaches a client over TCP
// as a typed node fault naming the study, the field and the page, after
// one attempt — a retry of the one node would read the same rot — and
// never as the rotted bytes.
func TestRottedPageRefusedOverTCP(t *testing.T) {
	srv, err := medserver.New(medserver.Config{Bits: 4, NumPET: 2, NumMRI: 1, Seed: 1993, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := New(srv, Config{Addr: "127.0.0.1:0", MaxConns: 64})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcp := transport.DialTCP(d.Addr().String(), transport.TCPOptions{})
	defer tcp.Close()
	client := qbism.NewClient(tcp, qbism.Config{Bits: 4}, qbism.WithRetry(transport.DefaultRetryPolicy()))
	spec := qbism.QuerySpec{StudyID: 1, Atlas: "Talairach", FullStudy: true}
	if _, err := client.RunQuery(spec); err != nil {
		t.Fatalf("clean read: %v", err)
	}

	res, err := srv.DB.Exec(`select wv.data from warpedVolume wv where wv.studyId = 1`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("study 1's VOLUME: %d rows, %v", len(res.Rows), err)
	}
	field := res.Rows[0][0].L
	if err := srv.LFM.Corrupt(field, 100, 0x10); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Calls
	got, err := client.RunQuery(spec)
	if got != nil || !errors.Is(err, transport.ErrNodeFault) || transport.RetryableError(err) {
		t.Fatalf("read of a rotted VOLUME page over TCP: (%v, %v), want a typed %v and no answer", got, err, transport.ErrNodeFault)
	}
	for _, want := range []string{"study 1", fmt.Sprintf("field %d page 0", field), lfm.ErrChecksum.Error()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if calls := d.Stats().Calls - before; calls != 1 {
		t.Errorf("the client made %d calls for a rotted page, want 1", calls)
	}
	if n := srv.LFM.Stats().ChecksumFailures; n != 2 {
		t.Errorf("the server counted %d checksum failures, want 2 (the transfer and its re-read)", n)
	}
}
