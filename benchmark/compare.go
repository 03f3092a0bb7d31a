package main

import (
	"fmt"
	"io"
	"math"
)

// gate is one line of the comparison: a metric, and whether a move
// beyond its bound fails the comparison or is only reported.
type gate struct {
	metricDef
	gated bool
}

// localGates are the end-to-end metrics BENCHMARK.json cannot carry in
// its end_to_end list. The driver refuses the whole benchmark if any
// entry of that list is ever 0, is missing from a workload, or varies
// between ten runs of the same code by more than its bound, which may
// be a quarter at most. max_rate_in_slo_qps applies to one workload and
// failed_frac is 0 at the seed commit; both are exact here — the highest
// ladder rung within the limit may not drop, nothing may start failing.
// The timings do not repeat: the shared two-core box has slow spells of
// 15-25 % that outlast a run, so between runs of the same code
// throughput moves by 10-20 % and the latency percentiles by 20-45 %.
// Throughput is still gated here at the widest bound, because this
// comparison can answer "unresolved" where the driver can only reject;
// the percentiles are reported, not gated, as the issue prescribes for a
// timing that cannot repeat within a tenth.
var localGates = []gate{
	{metricDef{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25}, true},
	{metricDef{Name: "max_rate_in_slo_qps", Unit: "1/s", Better: "higher"}, true},
	{metricDef{Name: "failed_frac", Unit: "ratio", Better: "lower"}, true},
	{metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower"}, false},
	{metricDef{Name: "latency_p95_ms", Unit: "ms", Better: "lower"}, false},
	{metricDef{Name: "latency_p99_ms", Unit: "ms", Better: "lower"}, false},
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info" // reported, not gated
)

// verdict judges b against a for one metric. worsening is the relative
// move in the bad direction. A metric whose per-pass spread exceeds its
// bound cannot resolve a move of that size: it is unresolved, unless
// every pass of b reads better than every pass of a.
func verdict(def metricDef, exact bool, a, b float64, aPasses, bPasses []float64) (worsening float64, v string) {
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	switch {
	case a != 0:
		worsening = sign * (b - a) / math.Abs(a)
	case b != a:
		worsening = sign * math.Copysign(math.Inf(1), b-a)
	}
	if exact {
		if a != b {
			return worsening, verdictWorse
		}
		return worsening, verdictOK
	}
	bound := def.Bound
	if math.Max(spread(aPasses), spread(bPasses)) > bound {
		if len(aPasses) > 0 && len(bPasses) > 0 && allBetter(sign, aPasses, bPasses) {
			return worsening, verdictOK
		}
		return worsening, verdictUnresolved
	}
	if worsening > bound {
		return worsening, verdictWorse
	}
	return worsening, verdictOK
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the move, the bound and the verdict; it reports whether anything got
// worse.
func compareFiles(w io.Writer, m *manifest, pathA, pathB string) (worse bool, err error) {
	fa, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	var gates []gate
	for _, def := range m.EndToEnd {
		gates = append(gates, gate{def, true})
	}
	gates = append(gates, localGates...)

	fmt.Fprintf(w, "%-17s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	counts := make(map[string]int)
	for _, name := range workloadNames {
		a, b := fa.Results[name], fb.Results[name]
		if a == nil || b == nil {
			fmt.Fprintf(w, "%-17s missing from one of the files\n", name)
			continue
		}
		if a.Smoke || b.Smoke || a.Seconds != b.Seconds {
			return false, fmt.Errorf("%s: the two runs are not comparable (smoke %v/%v, window %gs/%gs)",
				name, a.Smoke, b.Smoke, a.Seconds, b.Seconds)
		}
		for _, g := range gates {
			va, okA := a.EndToEnd[g.Name]
			vb, okB := b.EndToEnd[g.Name]
			if !okA || !okB {
				continue // does not apply to this workload
			}
			exact := a.Seed == b.Seed && isExact(name, g.Name)
			by, v := verdict(g.metricDef, exact, va.Value, vb.Value, a.PerPass[g.Name].Values, b.PerPass[g.Name].Values)
			bound := fmt.Sprintf("%.1f%%", 100*g.Bound)
			switch {
			case !g.gated:
				v, bound = verdictInfo, "-"
			case exact:
				bound = "exact"
			}
			counts[v]++
			fmt.Fprintf(w, "%-17s %-28s %14.6g %14.6g %+8.2f%% %7s  %s\n",
				name, g.Name, va.Value, vb.Value, 100*by, bound, v)
		}
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved, %d reported only\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved], counts[verdictInfo])
	return counts[verdictWorse] > 0, nil
}
