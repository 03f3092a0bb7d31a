// Package daemon assembles a serving qbismd process out of the pieces
// the rest of the repo provides: a loaded MedicalServer as the RPC
// handler, a transport.Server carrying the frame protocol over TCP,
// and an admin HTTP endpoint exposing the server's metrics registry in
// Prometheus text format plus a drain-aware health check.
//
// The package exists so cmd/qbismd stays a thin flag-parsing shell and
// the daemon's behavior — including graceful drain and the loopback
// equivalence guarantee — is testable in-process.
package daemon

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"qbism/internal/obs"
	"qbism/internal/transport"
)

// Backend is what a Daemon serves and observes: a MedicalServer's RPC
// handler and the hand-back of the replies it built (transport.Service:
// the daemon releases each ok reply once its socket write has returned,
// and the backend builds a later reply in it), and the registry and
// tracer it reports into. A *medserver.Server is one; so is a
// *qbism.System, whose client shares its server's and which gets these
// methods by promotion.
type Backend interface {
	transport.Service
	Observers() (*obs.Registry, *obs.Tracer)
}

// Config parameterizes a Daemon.
type Config struct {
	// Addr is the RPC listen address (e.g. ":7414"; "127.0.0.1:0" for
	// an ephemeral test port).
	Addr string
	// AdminAddr is the admin HTTP listen address serving /metrics and
	// /healthz. Empty disables the admin endpoint.
	AdminAddr string
	// MaxConns bounds the RPC connection pool (transport default: 64).
	MaxConns int
	// Admission is the per-client token-bucket policy (zero Rate
	// disables).
	Admission transport.AdmissionConfig
}

// Daemon is one serving MedicalServer: RPC server plus admin endpoint.
type Daemon struct {
	metrics *obs.Registry
	srv     *transport.Server
	cfg     Config

	adminLn net.Listener
	// adminDone carries the admin goroutine's Serve result, sent once.
	adminDone chan error

	mu       sync.Mutex
	draining bool         // guarded by mu
	admin    *http.Server // guarded by mu; nil when disabled or closed
}

// New wires a loaded server into a daemon. The transport server
// observes into the backend's own metrics registry and tracer, so
// /metrics shows RPC counters next to query counters.
func New(b Backend, cfg Config) *Daemon {
	metrics, tracer := b.Observers()
	return &Daemon{
		metrics:   metrics,
		cfg:       cfg,
		adminDone: make(chan error, 1),
		srv: transport.NewServer(b, transport.ServerConfig{
			Addr:      cfg.Addr,
			MaxConns:  cfg.MaxConns,
			Admission: cfg.Admission,
			Metrics:   metrics,
			Tracer:    tracer,
		}),
	}
}

// Start binds the RPC listener and, when configured, the admin
// endpoint. It returns once both are bound — Addr and AdminAddr are
// valid immediately after.
func (d *Daemon) Start() error {
	if err := d.srv.Start(); err != nil {
		return err
	}
	if d.cfg.AdminAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", d.cfg.AdminAddr)
	if err != nil {
		d.srv.Close()
		return fmt.Errorf("daemon: admin listen %s: %w", d.cfg.AdminAddr, err)
	}
	d.adminLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealthz)
	srv := &http.Server{Handler: mux}
	d.mu.Lock()
	d.admin = srv
	d.mu.Unlock()
	// The goroutine ends when Serve does; closeAdmin waits for it.
	go func() { d.adminDone <- srv.Serve(ln) }()
	return nil
}

// Addr returns the bound RPC address (valid after Start).
func (d *Daemon) Addr() net.Addr { return d.srv.Addr() }

// AdminAddr returns the bound admin address, or nil when disabled.
func (d *Daemon) AdminAddr() net.Addr {
	if d.adminLn == nil {
		return nil
	}
	return d.adminLn.Addr()
}

// Stats returns the RPC server's counters.
func (d *Daemon) Stats() transport.ServerStats { return d.srv.Stats() }

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := d.metrics.WriteProm(w); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		fmt.Fprintf(w, "\n# error: %v\n", err)
	}
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Drain shuts the daemon down gracefully: /healthz flips to 503 first
// (so load balancers stop routing), then the RPC server drains —
// inflight calls finish, new dials are refused — and finally the admin
// endpoint closes. The admin endpoint outlives the RPC drain
// deliberately: operators watch /metrics while the drain runs. Returns
// transport.ErrDrainTimeout (wrapped) if inflight work outlived the
// deadline and was force-closed, joined with the admin endpoint's error
// if it had stopped serving on its own.
func (d *Daemon) Drain(timeout time.Duration) error {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	err := d.srv.Drain(timeout)
	return errors.Join(err, d.closeAdmin())
}

// Close tears everything down immediately. Like Drain it reports an
// admin endpoint that had failed underneath the daemon.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	err := d.srv.Close()
	return errors.Join(err, d.closeAdmin())
}

// closeAdmin stops the admin endpoint and waits for its goroutine. The
// first caller does the work; Serve ending for any reason other than
// this close is the error it returns.
func (d *Daemon) closeAdmin() error {
	d.mu.Lock()
	admin := d.admin
	d.admin = nil
	d.mu.Unlock()
	if admin == nil {
		return nil
	}
	admin.Close()
	if err := <-d.adminDone; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("daemon: admin endpoint stopped serving: %w", err)
	}
	return nil
}
