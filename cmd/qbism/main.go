// Command qbism loads a synthetic QBISM database and runs a single
// end-to-end query — the command-line analog of the DX session in the
// paper's Figure 5: pick a study, optionally a structure, box, and
// intensity band; get back a rendered projection and a Table-3-style
// timing row.
//
// Examples:
//
//	qbism -study 1 -full
//	qbism -study 1 -structure ntal1 -bandlo 224 -bandhi 255 -out result.pgm
//	qbism -study 2 -box 30,30,30,100,100,100
//	qbism -sql "select numRuns(as.region) from atlasStructure as"
//
// Chaos mode injects deterministic faults on the RPC link and the LFM
// device and lets the retrying, checksummed query path ride them out:
//
//	qbism -study 1 -full -drop 0.05 -timeout 0.02 -readerr 0.01 -faultseed 42
//
// Cluster mode partitions the corpus across shards, each a
// primary+replica node pair; -deadnode and -slownode degrade a chosen
// node so the failover, circuit-breaker, and hedging machinery is
// observable from the command line:
//
//	qbism -study 1 -full -shards 2 -replicas 1 -deadnode 0:0
//	qbism -study 1 -full -shards 2 -slownode 1:0 -metrics
//
// With -addr the MedicalServer is a running qbismd and this process is
// only its DX client: nothing is loaded here, and the corpus, storage
// and fault flags (the daemon's own) are not read:
//
//	qbism -addr db3:7414 -study 1 -structure ntal1 -out result.pgm
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qbism"
	"qbism/internal/faultsim"
)

func main() {
	bits := flag.Int("bits", 6, "atlas grid bits per axis (7 = paper scale)")
	pets := flag.Int("pets", 2, "number of PET studies")
	mris := flag.Int("mris", 1, "number of MRI studies")
	seed := flag.Uint64("seed", 1993, "synthesis seed")
	small := flag.Bool("small", true, "use compact acquisition grids")

	study := flag.Int("study", 1, "study id to query")
	full := flag.Bool("full", false, "retrieve the entire study (Q1)")
	structure := flag.String("structure", "", "restrict to an atlas structure (e.g. ntal, ntal1, putamen)")
	boxSpec := flag.String("box", "", "restrict to a box: x0,y0,z0,x1,y1,z1")
	bandLo := flag.Int("bandlo", -1, "intensity band lower bound")
	bandHi := flag.Int("bandhi", -1, "intensity band upper bound")
	out := flag.String("out", "", "write the rendered MIP projection to this PGM file")
	sql := flag.String("sql", "", "run this SQL statement instead of a query spec")
	repl := flag.Bool("repl", false, "read SQL statements from stdin (one per line; EXPLAIN supported)")

	drop := flag.Float64("drop", 0, "link: probability a message is dropped")
	timeout := flag.Float64("timeout", 0, "link: probability a message times out")
	corrupt := flag.Float64("corrupt", 0, "link: probability of detected payload corruption")
	tamper := flag.Float64("tamper", 0, "link: probability of a silent one-byte flip (caught by the frame CRC)")
	latency := flag.Float64("latency", 0, "link: probability of 50ms extra simulated latency")
	readErr := flag.Float64("readerr", 0, "device: per-page probability of a read fault")
	pageCorrupt := flag.Float64("pagecorrupt", 0, "device: per-page probability of a silent bit flip (caught by page checksums)")
	faultSeed := flag.Uint64("faultseed", 1, "fault injection seed")
	retries := flag.Int("retries", 5, "max query attempts (1 = no retries)")
	checksums := flag.Bool("checksums", true, "enable per-page CRC32 checksums on long fields")

	cachePages := flag.Int("cachepages", 0, "LFM page cache capacity in 4KB pages (0 = no cache, the paper's protocol)")
	gapPages := flag.Uint64("gappages", 0, "coalesce extraction reads across page gaps up to this wide (0 = exact runs)")
	workers := flag.Int("workers", 0, "worker pool size for multi-study plans (0/1 = serial)")
	noPushdown := flag.Bool("nopushdown", false, "disable SQL predicate pushdown and hash joins (A/B baseline)")

	addr := flag.String("addr", "", "query the running qbismd at this host:port instead of loading a corpus in-process")
	shards := flag.Int("shards", 0, "partition the corpus across this many shards (0 = unsharded single node)")
	replicas := flag.Int("replicas", 1, "replicas per shard primary (cluster mode)")
	deadNode := flag.String("deadnode", "", "cluster: kill this node's link before querying, as shard:replica (0:0 = shard 0 primary)")
	slowNode := flag.String("slownode", "", "cluster: add 50ms per message on this node's link, as shard:replica")

	trace := flag.Bool("trace", false, "trace the query and print its span tree")
	metrics := flag.Bool("metrics", false, "print the metrics registry (Prometheus text format) on exit")
	slowlog := flag.Duration("slowlog", 0, "capture queries at least this slow into the slow-query log (implies -trace)")
	flag.Parse()

	cfg := qbism.Config{
		Bits: *bits, NumPET: *pets, NumMRI: *mris, Seed: *seed, SmallStudies: *small,
		Checksums:  *checksums,
		CachePages: *cachePages, ReadGapPages: *gapPages,
		Trace: *trace,
	}
	if *readErr+*pageCorrupt > 0 {
		cfg.DeviceFaults = &qbism.FaultPolicy{
			Seed: *faultSeed + 1, ReadErrProb: *readErr, PageCorruptProb: *pageCorrupt,
		}
	}
	pol := qbism.DefaultRetryPolicy()
	pol.MaxAttempts, pol.Seed = *retries, *faultSeed
	opts := []qbism.Option{qbism.WithRetry(pol), qbism.WithSlowLog(*slowlog), qbism.WithWorkers(*workers)}

	buildSpec := func() qbism.QuerySpec {
		spec := qbism.QuerySpec{
			StudyID:   *study,
			Atlas:     "Talairach",
			FullStudy: *full,
			Structure: *structure,
		}
		if *boxSpec != "" {
			parts := strings.Split(*boxSpec, ",")
			if len(parts) != 6 {
				fail("-box needs 6 comma-separated coordinates")
			}
			var b [6]uint32
			for i, p := range parts {
				v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
				if err != nil {
					fail("-box coordinate %d: %v", i+1, err)
				}
				b[i] = uint32(v)
			}
			spec.Box = &b
		}
		if *bandLo >= 0 || *bandHi >= 0 {
			if *bandLo < 0 || *bandHi < 0 {
				fail("set both -bandlo and -bandhi")
			}
			spec.HasBand = true
			spec.BandLo = *bandLo
			spec.BandHi = *bandHi
		}
		return spec
	}

	if *addr != "" {
		if *sql != "" || *repl || *shards > 0 {
			fail("-addr sends a query spec to a running qbismd; it conflicts with -sql, -repl and -shards, which need the store in this process")
		}
		tcp := qbism.DialTCP(*addr)
		defer tcp.Close()
		c := qbism.NewClient(tcp, cfg, opts...)
		res := runSpec(c, buildSpec())
		fmt.Printf("connected to %s\n", *addr)
		report(os.Stdout, c, nil, false, res, *slowlog, *metrics, *out)
		return
	}
	if *shards > 0 {
		if *sql != "" || *repl {
			fail("-shards applies to query specs; the SQL modes run unsharded")
		}
		runClusterQuery(cfg, opts, *shards, *replicas, *noPushdown, *deadNode, *slowNode, *slowlog, *metrics, *out, buildSpec())
		return
	}

	loadStart := time.Now()
	sys, err := qbism.NewSystem(cfg, opts...)
	if err != nil {
		fail("load: %v", err)
	}
	var linkFaults *faultsim.Injector
	if *drop+*timeout+*corrupt+*tamper+*latency > 0 {
		linkFaults = qbism.NewFaultInjector(qbism.FaultPolicy{
			Seed: *faultSeed, DropProb: *drop, TimeoutProb: *timeout,
			CorruptProb: *corrupt, TamperProb: *tamper,
			LatencyProb: *latency, ExtraLatency: 50 * time.Millisecond,
		})
		sys.Transport.SetFaults(linkFaults)
	}
	if *noPushdown {
		sys.DB.SetPushdown(false)
	}
	// Timing goes to stderr: stdout stays identical run to run.
	fmt.Fprintf(os.Stderr, "loaded %d studies in %.2f s on %d procs\n",
		len(sys.Studies), time.Since(loadStart).Seconds(), runtime.GOMAXPROCS(0))
	fmt.Printf("loaded %d^3 atlas, %d studies, %d structures; cache=%dp gap=%dp workers=%d\n",
		sys.Side(), len(sys.Studies), len(sys.Atlas.Structures),
		*cachePages, *gapPages, *workers)

	runSQL := func(stmt string) error {
		res, err := sys.DB.Exec(stmt)
		if err != nil {
			return err
		}
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
		return nil
	}
	if *sql != "" {
		if err := runSQL(*sql); err != nil {
			fail("sql: %v", err)
		}
		return
	}
	if *repl {
		fmt.Println("SQL REPL over the loaded catalog; one statement per line, ctrl-D to exit.")
		fmt.Printf("tables: %s\n", strings.Join(sys.DB.TableNames(), ", "))
		scanner := bufio.NewScanner(os.Stdin)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		for {
			fmt.Print("qbism> ")
			if !scanner.Scan() {
				fmt.Println()
				return
			}
			stmt := strings.TrimSpace(scanner.Text())
			if stmt == "" {
				continue
			}
			if stmt == "quit" || stmt == "exit" {
				return
			}
			if err := runSQL(stmt); err != nil {
				fmt.Println("error:", err)
			}
		}
	}

	report(os.Stdout, sys.Client, linkFaults, false, runSpec(sys.Client, buildSpec()), *slowlog, *metrics, *out)
}

// runSpec runs one query on a single server's client, exiting on failure.
func runSpec(c *qbism.Client, spec qbism.QuerySpec) *qbism.QueryResult {
	res, err := c.RunQuery(spec)
	if err != nil {
		if qbism.RetryableError(err) {
			fail("query: %v (transient — retries exhausted)", err)
		}
		fail("query: %v", err)
	}
	return res
}

// report prints a completed query — the same lines in the same order
// whichever deployment answered: all expose the same DX Client.
// linkFaults is the injector the -drop/-timeout/-corrupt/-tamper/-latency
// flags put on the embedded node's simulated link (nil when none, for a
// cluster, and for a dialed qbismd, whose link is a real one); sharded
// adds the line naming the shard and node that served the read.
func report(w io.Writer, c *qbism.Client, linkFaults *faultsim.Injector, sharded bool, res *qbism.QueryResult, slowlog time.Duration, metrics bool, out string) {
	qbism.WriteTable3(w, []qbism.Table3Row{{Label: res.Spec.Label(), Result: res}})
	st := res.Field.Stats()
	fmt.Fprintf(w, "\nresult: %d voxels in %d runs; intensity min/mean/max = %d/%.1f/%d (patient %s, %s)\n",
		st.N, res.Timing.HRuns, st.Min, st.Mean, st.Max, res.Meta.Patient, res.Meta.Date)
	read := res.Read
	if sharded {
		fmt.Fprintf(w, "cluster: shard %d served by %s in %d attempt(s), %d failover(s), hedged=%v (won=%v), %v simulated node latency\n",
			read.Shard, read.Node, read.Attempts, read.Failovers, read.Hedged, read.HedgeWon, read.LatencySim)
	}
	if read.Retries > 0 {
		fmt.Fprintf(w, "resilience: %d attempts, %d retried, %v simulated backoff (last error: %s)\n",
			read.Attempts, read.Retries, read.BackoffSim, read.LastError)
	}
	if res.Meta.Degraded {
		fmt.Fprintf(w, "WARNING: degraded answer — %s\n", res.Meta.Warning)
	}
	if c := linkFaults.Counts(); len(c) > 0 {
		fmt.Fprintf(w, "link faults: %d drops, %d timeouts, %d corruptions, %d tampers, %d latency hits\n",
			c[faultsim.Drop], c[faultsim.Timeout], c[faultsim.Corrupt], c[faultsim.Tamper], c[faultsim.Latency])
	}

	if res.Trace != nil {
		fmt.Fprintln(w, "\ntrace:")
		fmt.Fprint(w, res.Trace.RenderString())
	}
	if c.SlowLog != nil {
		entries := c.SlowLog.Entries()
		fmt.Fprintf(w, "\nslow-query log (threshold %v): %d of %d captured\n",
			slowlog, len(entries), c.SlowLog.Total())
		for _, e := range entries {
			fmt.Fprintf(w, "-- %s (%v)\n", e.Label, e.Total)
			for _, line := range e.Explain {
				fmt.Fprintln(w, "   "+line)
			}
		}
	}
	if metrics {
		if sharded {
			fmt.Fprintln(w, "\ncluster metrics:")
		} else {
			fmt.Fprintln(w, "\nmetrics:")
		}
		c.Metrics.WriteProm(w)
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail("create %s: %v", out, err)
		}
		defer f.Close()
		if err := res.Image.WritePGM(f); err != nil {
			fail("write %s: %v", out, err)
		}
		fmt.Fprintf(w, "wrote %dx%d MIP projection to %s\n", res.Image.W, res.Image.H, out)
	}
}

// parseNodeRef parses "shard:replica" ("0:0" is shard 0's primary).
func parseNodeRef(flagName, v string) (shard, replica int, ok bool) {
	if v == "" {
		return 0, 0, false
	}
	parts := strings.SplitN(v, ":", 2)
	if len(parts) != 2 {
		fail("%s: want shard:replica, got %q", flagName, v)
	}
	sh, err := strconv.Atoi(parts[0])
	if err != nil || sh < 0 {
		fail("%s: bad shard in %q", flagName, v)
	}
	r, err := strconv.Atoi(parts[1])
	if err != nil || r < 0 {
		fail("%s: bad replica in %q", flagName, v)
	}
	return sh, r, true
}

// runClusterQuery executes one query spec against a sharded deployment,
// optionally degrading one node first, and reports how the read was
// served: which node answered, and any failovers, retries, or hedges it
// took to keep the answer byte-identical.
func runClusterQuery(cfg qbism.Config, opts []qbism.Option, shards, replicas int, noPushdown bool, deadNode, slowNode string, slowlog time.Duration, metrics bool, out string, spec qbism.QuerySpec) {
	deadSh, deadR, haveDead := parseNodeRef("-deadnode", deadNode)
	slowSh, slowR, haveSlow := parseNodeRef("-slownode", slowNode)
	if replicas == 0 {
		// ClusterConfig treats 0 as "default" (one replica); an explicit
		// -replicas 0 on the CLI means none.
		replicas = -1
	}
	ccfg := qbism.ClusterConfig{
		Shards: shards, Replicas: replicas, Base: cfg,
		HedgeAfter: 25 * time.Millisecond,
		NodeFaults: func(sh, r int) (link, device *qbism.FaultPolicy) {
			switch {
			case haveDead && sh == deadSh && r == deadR:
				return &qbism.FaultPolicy{DropProb: 1}, nil
			case haveSlow && sh == slowSh && r == slowR:
				return &qbism.FaultPolicy{LatencyProb: 1, ExtraLatency: 50 * time.Millisecond}, nil
			}
			return nil, nil
		},
	}
	cs, err := qbism.NewClusterSystem(ccfg, opts...)
	if err != nil {
		fail("load cluster: %v", err)
	}
	defer cs.Close()
	perShard := make([]int, shards)
	for sh, nodes := range cs.Nodes {
		perShard[sh] = len(nodes[0].Studies)
		if noPushdown {
			for _, node := range nodes {
				node.DB.SetPushdown(false)
			}
		}
	}
	if replicas < 0 {
		replicas = 0
	}
	fmt.Printf("loaded %d studies across %d shards x (1 primary + %d replica(s)); studies per shard: %v\n",
		len(cs.Studies), shards, replicas, perShard)
	if haveDead {
		fmt.Printf("degraded: node %d:%d is dead (all messages dropped)\n", deadSh, deadR)
	}
	if haveSlow {
		fmt.Printf("degraded: node %d:%d is slow (+50ms per message)\n", slowSh, slowR)
	}

	res, err := cs.RunQuery(spec)
	if err != nil {
		if errors.Is(err, qbism.ErrShardUnavailable) {
			fail("query: shard lost (typed, never a silent wrong answer): %v", err)
		}
		fail("query: %v", err)
	}
	report(os.Stdout, cs.Client, nil, true, res, slowlog, metrics, out)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
