package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"qbism/internal/bench"
)

// Workload names, as BENCHMARK.json and every later issue refer to them.
const (
	wlDXInteractive   = "dx_interactive"
	wlDaemonSmall     = "daemon_small"
	wlBulkOpen        = "bulk_open"
	wlPopulationBatch = "population_batch"
)

var workloadNames = []string{wlDXInteractive, wlDaemonSmall, wlBulkOpen, wlPopulationBatch}

// metricValue is one reported number with its unit, the shape the
// builder's contract wants on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metricValue

func (m metricSet) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// metricDef is one entry of BENCHMARK.json's end_to_end / per_layer
// lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the program reads back: the
// metric names it must emit, and the bounds -compare gates on.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return &m, nil
}

// isExact reports whether a metric repeats bit for bit for one seed:
// -compare demands equality on those when both sides ran the same seed,
// whatever BENCHMARK.json's bound (which has to absorb the driver's
// seed-to-seed variation) says. The per-query counters lose exactness on
// bulk_open, where the set of requests that complete at the saturated
// rungs depends on speed.
func isExact(workload, metric string) bool {
	switch metric {
	case "stored_bytes_per_user_byte":
		return true
	case "lfm_pages_per_query", "resp_bytes_per_query":
		return workload != wlBulkOpen
	}
	return false
}

// passSeries is one rate or counter sampled once per timed pass.
type passSeries struct {
	Values    []float64  `json:"values"`
	Quartiles [3]float64 `json:"quartiles"`
}

func newPassSeries(values []float64) passSeries {
	return passSeries{Values: values, Quartiles: quartiles(values)}
}

// host is the fingerprint that makes wall-clock numbers interpretable:
// the machine, plus the revision the binary was built from.
type host struct {
	bench.Host
	GitRev string `json:"git_rev"`
}

// result is one workload's record in a result file (-out).
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Smoke     bool     `json:"smoke,omitempty"`
	Traced    bool     `json:"traced"`
	Host      host     `json:"host"`
	OpsHash   string   `json:"ops_hash"`
	PassOps   int      `json:"pass_ops"`
	Clients   int      `json:"clients"`
	Passes    int      `json:"passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`

	// EndToEnd holds every end-to-end metric that applies to the
	// workload; PerLayer is filled by traced runs only.
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`
	// PerPass records the per-pass values (and their quartiles) behind
	// the medians in EndToEnd — what -compare reads the spread from.
	PerPass map[string]passSeries `json:"per_pass,omitempty"`
	// Ladder is bulk_open's open loop, rung by rung.
	Ladder []rungSummary `json:"ladder,omitempty"`
	// SelfTime is the traced run's per-span self-time table, in
	// microseconds per operation.
	SelfTime []selfRow `json:"self_time,omitempty"`
}

// rungSummary is one fixed-rate step of the open loop as recorded in a
// result file; latencies are from each request's due time.
type rungSummary struct {
	Rate        float64 `json:"rate_qps"`
	Scheduled   int     `json:"scheduled"`
	Completed   int     `json:"completed"`
	Unsent      int     `json:"unsent"`
	Failed      int     `json:"failed"`
	Missed      int     `json:"missed_limit"`
	AchievedQPS float64 `json:"achieved_qps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	InSLO       bool    `json:"in_slo"`
}

// resultFile is what -out writes: one record per workload, so a
// complete set of runs is a single file.
type resultFile struct {
	Results map[string]*result `json:"results"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Results == nil {
		f.Results = make(map[string]*result)
	}
	return &f, nil
}

// mergeResultFile adds res to the set stored at path (creating it), so
// four single-workload runs accumulate into one comparable file.
func mergeResultFile(path string, res *result) error {
	f, err := readResultFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		f = &resultFile{Results: make(map[string]*result)}
	}
	f.Results[res.Workload] = res
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedNames returns a metric set's names in a stable order.
func sortedNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
