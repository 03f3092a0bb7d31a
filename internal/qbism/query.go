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

// QueryTiming is what RunQuery measured and counted for one query:
// result size, I/O, messages and this machine's wall times. Table 3
// prices it in 1993 seconds (PriceQuery); the serving path does not.
type QueryTiming struct {
	HRuns  int
	Voxels uint64

	LFMPages uint64 // LFM disk I/Os (4 KB pages)

	DBMeasured     time.Duration // server-side handler time on this machine
	NetMessages    uint64
	ImportMeasured time.Duration
	RenderMeasured time.Duration
	TotalMeasured  time.Duration
}

// QueryResult is a completed end-to-end query. Its Field holds the
// reply as it came off the wire — the encoded REGION and the values —
// and Data decodes it on demand.
type QueryResult struct {
	Spec   QuerySpec
	Meta   QueryMeta
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

// Data returns the query's answer as a DataRegion, decoding the
// reply's REGION into a new Region on each call (dx.Field.Data): a query
// only rendered builds none.
func (r *QueryResult) Data() (*volume.DataRegion, error) { return r.Field.Data() }

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
