// Command qbismd serves a MedicalServer over TCP: its query handler
// behind the frame protocol, with a bounded connection pool, per-client
// token-bucket admission control, graceful drain on SIGTERM/SIGINT, and
// an admin HTTP endpoint exposing Prometheus metrics and a drain-aware
// health check. It is the server half alone — internal/medserver, with
// no DX front end, cluster or experiment driver linked in (`make
// qbismd-deps`).
//
// The daemon loads the same synthetic corpus the CLI and the test
// suites use; any client speaking the frame protocol (`qbism -addr`,
// which is a qbism.Client over transport.DialTCP, or a bare
// transport.DialTCP) gets answers byte-identical to an in-process run —
// that equivalence is pinned by internal/daemon's loopback test.
//
// Examples:
//
//	qbismd -addr :7414 -admin :7415
//	qbismd -addr :7414 -rate 200 -burst 50 -max-conns 128
//	qbismd -bits 7 -pets 4 -drain-timeout 1m
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"qbism/internal/daemon"
	"qbism/internal/medserver"
	"qbism/internal/transport"
)

func main() {
	addr := flag.String("addr", ":7414", "RPC listen address")
	admin := flag.String("admin", "", "admin HTTP listen address for /metrics and /healthz (empty disables)")
	maxConns := flag.Int("max-conns", 64, "connection pool bound; extra dials queue in the kernel")
	rate := flag.Float64("rate", 0, "admission: sustained calls/sec per client host (0 disables)")
	burst := flag.Float64("burst", 0, "admission: burst size per client host")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")

	bits := flag.Int("bits", 6, "atlas grid bits per axis (7 = paper scale)")
	pets := flag.Int("pets", 2, "number of PET studies")
	mris := flag.Int("mris", 1, "number of MRI studies")
	seed := flag.Uint64("seed", 1993, "synthesis seed")
	small := flag.Bool("small", true, "use compact acquisition grids")
	flag.Parse()

	if err := run(*addr, *admin, *maxConns, *rate, *burst, *drainTimeout, medserver.Config{
		Bits:         *bits,
		NumPET:       *pets,
		NumMRI:       *mris,
		Seed:         *seed,
		SmallStudies: *small,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "qbismd:", err)
		os.Exit(1)
	}
}

func run(addr, admin string, maxConns int, rate, burst float64, drainTimeout time.Duration, cfg medserver.Config) error {
	fmt.Fprintf(os.Stderr, "qbismd: loading corpus (%d^3 grid, %d PET + %d MRI)...\n",
		1<<cfg.Bits, cfg.NumPET, cfg.NumMRI)
	loadStart := time.Now()
	srv, err := medserver.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "qbismd: loaded %d studies in %.2f s on %d procs\n",
		len(srv.Studies), time.Since(loadStart).Seconds(), runtime.GOMAXPROCS(0))

	d := daemon.New(srv, daemon.Config{
		Addr:      addr,
		AdminAddr: admin,
		MaxConns:  maxConns,
		Admission: transport.AdmissionConfig{Rate: rate, Burst: burst},
	})
	// Close is idempotent and safe after a clean Drain; deferring it
	// here also force-closes lingering connections when the drain
	// deadline expires.
	defer d.Close()
	if err := d.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qbismd: serving on %s\n", d.Addr())
	if a := d.AdminAddr(); a != nil {
		fmt.Fprintf(os.Stderr, "qbismd: admin on http://%s (/metrics, /healthz)\n", a)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "qbismd: %s — draining (deadline %s)\n", sig, drainTimeout)
	if err := d.Drain(drainTimeout); err != nil {
		if errors.Is(err, transport.ErrDrainTimeout) {
			fmt.Fprintln(os.Stderr, "qbismd:", err)
			st := d.Stats()
			fmt.Fprintf(os.Stderr, "qbismd: served %d calls (%d errors), rejected %d admission / %d drain\n",
				st.Calls, st.Errors, st.AdmissionRejected, st.DrainRejected)
			return nil
		}
		return err
	}
	st := d.Stats()
	fmt.Fprintf(os.Stderr, "qbismd: drained clean; served %d calls (%d errors), rejected %d admission / %d drain\n",
		st.Calls, st.Errors, st.AdmissionRejected, st.DrainRejected)
	return nil
}
