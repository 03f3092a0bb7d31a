// Command benchmark is the repo benchmark described by BENCHMARK.json:
// four paper-scale workloads, each measured end to end (untraced) and,
// in a separate traced run, layer by layer from the outside. See
// README.md in this directory for the metric catalogue and how to read
// the numbers.
//
//	go run ./benchmark -workload dx_interactive -seed 1993 -seconds 12 -trace 0
//	go run ./benchmark -workload all -out set-a.json
//	go run ./benchmark -compare set-a.json set-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1993, "operation generator seed (the corpus seed never changes)")
	seconds := flag.Float64("seconds", 12, "length of the timed window (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, self-time table, benchmark/out/trace-<workload>.json")
	out := flag.String("out", "", "merge the full result record into this file (one record per workload)")
	smoke := flag.Bool("smoke", false, "tiny corpus (Bits 5): checks the plumbing, measures nothing")
	compare := flag.Bool("compare", false, "compare two result files: -compare <a.json> <b.json>")
	flag.Parse()

	// The manifest carries the metric names a run must emit and the
	// bounds -compare gates on; like the driver, the program expects to
	// be run from the repository root.
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, m, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if runtime.NumCPU() == 1 {
		fmt.Println("WARNING: nproc == 1: clients, connections and executor workers share one CPU; " +
			"parallel wall-clock numbers (daemon_small with 2 connections, bulk_open, qbism.batch_speedup) are meaningless here")
	}
	for _, name := range names {
		res, err := run(options{workload: name, seed: *seed, seconds: *seconds,
			trace: *trace != 0, smoke: *smoke, traceDir: "benchmark/out"})
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		if *out != "" {
			if err := mergeResultFile(*out, res); err != nil {
				fatal(err)
			}
		}
		line, err := resultLine(m, res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult lists every metric the run produced by name, with its
// unit, then the self-time table of a traced run.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  window %.1fs  %d passes of %d ops  %d client(s)  ops %s\n",
		res.Workload, res.Seed, res.Seconds, res.Passes, res.PassOps, res.Clients, res.OpsHash)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  %s  rev %s\n",
		res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.GitRev)
	printSet := func(title string, set metricSet) {
		if len(set) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		for _, name := range sortedNames(set) {
			fmt.Fprintf(w, "  %-40s %16.6g %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	printSet("end to end (untraced):", res.EndToEnd)
	printSet("per layer:", res.PerLayer)
	if len(res.SelfTime) > 0 {
		fmt.Fprintln(w, "self time per operation (client chain traced; server side from the paired ServeRPC and the staged replay):")
		for _, r := range res.SelfTime {
			fmt.Fprintf(w, "  %-34s %12.1f us %6.1f%%\n", r.Span, r.SelfUsOp, 100*r.ShareFrac)
		}
	}
	fmt.Fprintf(w, "verification + timed: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// resultLine renders the contract's last line: exactly the manifest's
// end-to-end metrics for an untraced run, exactly its per-layer metrics
// for a traced one.
func resultLine(m *manifest, res *result) (string, error) {
	defs, have := m.EndToEnd, res.EndToEnd
	if res.Traced {
		defs, have = m.PerLayer, res.PerLayer
	}
	metrics := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := have[d.Name]
		if !ok {
			return "", fmt.Errorf("workload %s produced no %q, which the manifest names", res.Workload, d.Name)
		}
		if v.Unit != d.Unit {
			return "", fmt.Errorf("%q is measured in %s, the manifest says %s", d.Name, v.Unit, d.Unit)
		}
		metrics[d.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}
