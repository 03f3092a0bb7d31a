package qbism

import (
	"fmt"
	"strings"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/dx"
	"qbism/internal/obs"
	"qbism/internal/volume"
)

// QueryTiming is one row of Table 3: result size, I/O, and the
// per-component time breakdown. Measured* fields are this machine's
// actual wall times; Sim* fields price the counted work with the
// calibrated 1993 cost model so rows are comparable with the paper's.
type QueryTiming struct {
	Label  string
	HRuns  int
	Voxels uint64

	LFMPages uint64 // LFM disk I/Os (4 KB pages)

	DBMeasured     time.Duration // server-side handler time on this machine
	DBSimReal      time.Duration // simulated Starburst/MedicalServer real time
	NetMessages    uint64
	NetSim         time.Duration
	ImportMeasured time.Duration
	ImportSim      time.Duration
	RenderMeasured time.Duration
	RenderSim      time.Duration
	RetrySim       time.Duration // simulated backoff waits across retries
	OtherSim       time.Duration
	TotalSim       time.Duration
	TotalMeasured  time.Duration
}

// QueryResult is a completed end-to-end query.
type QueryResult struct {
	Spec   QuerySpec
	Meta   QueryMeta
	Data   *volume.DataRegion
	Field  *dx.Field
	Image  *dx.Image
	Timing QueryTiming
	// Read reports how the query was served, on either topology: the
	// shard and node that answered, its attempts, retries, failovers and
	// hedges, the simulated backoff, the last failed attempt's error, and
	// the bill of every call it made.
	Read cluster.ReadInfo
	// Trace is the query's span tree (nil untraced, see Client.Tracer): the RPC
	// round trips, server-side SQL phases and operators, per-handle LFM
	// I/O, and the DX import/render stages.
	Trace *obs.Span
}

// explainFromSpan reconstructs the EXPLAIN ANALYZE view from a query's
// span tree: the operator spans under each "sql.execute" phase carry
// exactly the counters explainSelect would print, so no re-execution
// (and no extra I/O) is needed for the forensic capture.
func explainFromSpan(root *obs.Span) []string {
	var out []string
	var operators func(sp *obs.Span, depth int)
	operators = func(sp *obs.Span, depth int) {
		in, _ := sp.Int("rowsIn")
		outRows, _ := sp.Int("rowsOut")
		udf, _ := sp.Int("udfCalls")
		pages, _ := sp.Int("lfmPages")
		probe, _ := sp.Int("probes")
		out = append(out, fmt.Sprintf("%s%s [in=%d out=%d udf=%d pages=%d probe=%d]",
			strings.Repeat("  ", depth), sp.Name(), in, outRows, udf, pages, probe))
		for _, c := range sp.Children() {
			operators(c, depth+1)
		}
	}
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "sql.execute" {
			return
		}
		for _, c := range sp.Children() {
			operators(c, 0)
		}
	})
	return out
}
