package qbism

import (
	"testing"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/transport"
)

// clientPrice is the arithmetic Client.finish ran on every query while
// the client priced its own work, copied as it was: the cost model's
// terms over the reply's metadata, the import's voxel and run counts
// (the field's), and the read's bill.
func clientPrice(res *QueryResult) SimTime {
	model := costmodel.Default1993()
	meta, read := res.Meta, res.Read
	voxels, runs := res.Field.NumVoxels(), uint64(res.Field.NumRuns())
	p := SimTime{
		DB:     model.StarburstTime(time.Duration(meta.DBCPUNanos), meta.LFMPages),
		Net:    read.Net.Latency,
		Import: model.ImportTime(voxels, runs),
		Render: model.RenderTime(voxels),
		Retry:  read.BackoffSim,
		Other:  model.OtherTime,
	}
	p.Total = p.DB + p.Net + p.Import + p.Render + p.Retry + p.Other
	return p
}

// TestPriceQueryMatchesClientArithmetic prices the same measured
// queries two ways — the client's old arithmetic and PriceQuery, which
// reads only what RunQuery measured — and wants every sim column equal:
// Table 3's six queries on a clean link, and chaos reads until one was
// retried, so the retry column is priced too.
func TestPriceQueryMatchesClientArithmetic(t *testing.T) {
	clean, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	var results []*QueryResult
	for _, spec := range clean.Table3Queries() {
		res, err := clean.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		results = append(results, res)
	}

	faulty, _ := newFaulty(t, chaosBaseConfig(), chaosLinkPolicy(101), WithRetry(transport.DefaultRetryPolicy()))
	defer faulty.Close()
	pool := chaosSpecPool(faulty)
	retried := 0
	for i := 0; i < 200 && retried < 3; i++ {
		res, err := faulty.RunQuery(pool[i%len(pool)])
		if err != nil {
			continue
		}
		if res.Read.Retries > 0 {
			retried++
			results = append(results, res)
		}
	}
	if retried == 0 {
		t.Fatal("no read was retried — the retry column goes unchecked")
	}

	for _, res := range results {
		got, want := PriceQuery(res), clientPrice(res)
		if got != want {
			t.Errorf("%s: PriceQuery %+v, the client's arithmetic %+v", res.Spec.Label(), got, want)
		}
		if res.Read.Retries > 0 && got.Retry == 0 {
			t.Errorf("%s: %d retries priced at no backoff", res.Spec.Label(), res.Read.Retries)
		}
	}
}
