package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// itself around that call: the layer-qualified name, the operation it
// belongs to, its parent span, and start/end in nanoseconds since the
// recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path pays one nil check per call.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// timed records fn as a child span of parent.
func (r *recorder) timed(name string, op, parent int, fn func() error) error {
	id := r.start(name, op, parent)
	err := fn()
	r.end(id)
	return err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	type interval struct{ lo, hi int64 }
	kids := make(map[int][]interval)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[p.ID] = append(kids[p.ID], interval{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.Start
		for _, iv := range ivs {
			if iv.hi <= end {
				continue
			}
			covered += iv.hi - max(iv.lo, end)
			end = iv.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Span      string  `json:"span"`
	Module    string  `json:"module"`
	Calls     int     `json:"calls"`
	SelfUsOp  float64 `json:"self_us_per_op"`
	ShareFrac float64 `json:"share"`
}

// selfPerOp aggregates self time by span name: microseconds per
// operation over ops operations, and how many spans carried the name.
func selfPerOp(spans []span, ops int) (perOp map[string]float64, calls map[string]int) {
	self := selfTimes(spans)
	perOp, calls = make(map[string]float64), make(map[string]int)
	for _, s := range spans {
		perOp[s.Name] += float64(self[s.ID]) / 1e3 / float64(ops)
		calls[s.Name]++
	}
	return perOp, calls
}

// tableRows renders per-operation self times as table rows with their
// shares, largest first.
func tableRows(perOp map[string]float64, calls map[string]int) []selfRow {
	var total float64
	for _, d := range perOp {
		total += d
	}
	rows := make([]selfRow, 0, len(perOp))
	for name, d := range perOp {
		rows = append(rows, selfRow{Span: name, Module: strings.SplitN(name, ".", 2)[0],
			Calls: calls[name], SelfUsOp: d, ShareFrac: ratio(d, total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfUsOp != rows[j].SelfUsOp {
			return rows[i].SelfUsOp > rows[j].SelfUsOp
		}
		return rows[i].Span < rows[j].Span
	})
	return rows
}

// spanMean is the mean duration of the spans with the given name.
func spanMean(spans []span, name string) time.Duration {
	var sum int64
	var n int
	for _, s := range spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / int64(n))
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Client holds the spans of the traced passes (one tree per
	// operation); Server holds the paired ServeRPC calls and the staged
	// replay of every distinct spec; Load holds the staged set-up.
	Client []span `json:"client"`
	Server []span `json:"server"`
	Load   []span `json:"load"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
