package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qbism"
	"qbism/internal/daemon"
	"qbism/internal/medserver"
)

// row is a query's Table 3 row: what it measured, and its price.
type row struct {
	t qbism.QueryTiming
	p qbism.SimTime
}

// exactRow keeps the Table 3 columns that are counted, not timed, and
// do not depend on which link carried the query.
func exactRow(res *qbism.QueryResult) row {
	t, p := res.Timing, qbism.PriceQuery(res)
	p.Total -= p.Net + p.DB
	t.NetMessages, p.Net = 0, 0
	t.DBMeasured, p.DB = 0, 0
	t.ImportMeasured, t.RenderMeasured, t.TotalMeasured = 0, 0, 0
	return row{t, p}
}

// TestAddrMatchesEmbedded is `qbism -addr` against `qbism`: a Client
// over DialTCP to a daemon, and an embedded System, both on the corpus
// `-bits 4` loads, report the same query — the same PGM byte for byte
// and the same Table 3 row but for the link's columns.
func TestAddrMatchesEmbedded(t *testing.T) {
	cfg := qbism.Config{
		Bits: 4, NumPET: 2, NumMRI: 1, Seed: 1993, SmallStudies: true,
	}
	retry := qbism.WithRetry(qbism.DefaultRetryPolicy())
	spec := qbism.QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "ntal1"}
	dir := t.TempDir()

	sys, err := qbism.NewSystem(cfg, retry)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	embedded, err := sys.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	var embeddedOut bytes.Buffer
	report(&embeddedOut, sys.Client, nil, false, embedded, 0, true, filepath.Join(dir, "embedded.pgm"))

	srv, err := medserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := daemon.New(srv, daemon.Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcp := qbism.DialTCP(d.Addr().String())
	defer tcp.Close()
	client := qbism.NewClient(tcp, cfg, retry)
	dialed, err := client.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	var dialedOut bytes.Buffer
	report(&dialedOut, client, nil, false, dialed, 0, true, filepath.Join(dir, "dialed.pgm"))

	a, err := os.ReadFile(filepath.Join(dir, "embedded.pgm"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "dialed.pgm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("PGMs differ: %d bytes embedded, %d dialed", len(a), len(b))
	}
	if e, w := exactRow(embedded), exactRow(dialed); e != w {
		t.Errorf("Table 3 rows differ beyond the link's columns:\nembedded: %+v\ndialed:   %+v", e, w)
	}
	if dialed.Timing.NetMessages != 2 {
		t.Errorf("dialed query took %d messages, want one request and one reply", dialed.Timing.NetMessages)
	}
	for name, out := range map[string]string{"embedded": embeddedOut.String(), "dialed": dialedOut.String()} {
		if !strings.Contains(out, "\nmetrics:\n") || strings.Contains(out, "cluster metrics:") {
			t.Errorf("%s report titles a single server's registry as a cluster's:\n%s", name, out)
		}
	}
}
