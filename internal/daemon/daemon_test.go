package daemon

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

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
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{CallTimeout: 30 * time.Second})
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
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{DialTimeout: time.Second})
	defer c.Close()
	if _, err := c.Call(nil, "anything", nil); !errors.Is(err, transport.ErrDial) {
		t.Errorf("call after drain: %v, want ErrDial", err)
	}
}

// TestDaemonUnknownMethodOverWire: a version-skewed client gets the
// typed terminal refusal end to end.
func TestDaemonUnknownMethodOverWire(t *testing.T) {
	d, _ := startDaemon(t, Config{})
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{CallTimeout: 10 * time.Second})
	defer c.Close()
	_, err := c.Call(nil, "medicalQuery/v99", nil)
	if !errors.Is(err, transport.ErrUnknownMethod) {
		t.Errorf("unknown method over the wire: %v", err)
	}
	if transport.RetryableError(err) {
		t.Error("unknown method must be terminal")
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
	c := transport.DialTCP(d.Addr().String(), transport.TCPOptions{CallTimeout: 10 * time.Second})
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
