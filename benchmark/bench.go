package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/corpus"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/oracle"
)

// sizes fixes how much work a run does. fullSizes is what BENCHMARK.json
// measures; toySizes keeps the smoke test under a few seconds.
type sizes struct {
	universe    int // movies in the universe
	sources     int // messy sources preloaded (query_*) or integrated per round (ingest_messy)
	perSource   int // records per messy source
	distinct    int // distinct query strings query_cold cycles through
	coldLap     int // queries per lap of query_cold; divides distinct
	repeatSet   int // query strings of query_repeat
	repeatLap   int // queries per lap of query_repeat
	kept        int // databases ingest_messy keeps for the restart
	loopDBs     int // databases of loop_replicated
	loopPreload int // clean sources preloaded per database
	loopSource  int // records per clean source
	loopIters   int // loop iterations per database between resets to the preloaded state
	loopTail    int // write-ahead tail every database is brought to before the restart
	setups      int // set-up repetitions (the median is reported)
	traceOps    int // ops the traced replay covers
	traceStore  int // the traced replay compacts, saves and loads a snapshot every this many writes
}

var fullSizes = sizes{
	universe: 640, sources: 24, perSource: 30, distinct: 2048, coldLap: 128, repeatSet: 64, repeatLap: 4096,
	kept: 2, loopDBs: 4, loopPreload: 8, loopSource: 10, loopIters: 12, loopTail: 24,
	setups: 3, traceOps: 200, traceStore: 16,
}

var toySizes = sizes{
	universe: 120, sources: 4, perSource: 10, distinct: 96, coldLap: 96, repeatSet: 8, repeatLap: 2048,
	kept: 1, loopDBs: 2, loopPreload: 2, loopSource: 10, loopIters: 3, loopTail: 4,
	setups: 1, traceOps: 12, traceStore: 2,
}

// clientCounts is the closed-loop client count of each workload; the
// harness refuses to open more connections than the machine has cores. A
// client and the server it waits for take turns, so one client keeps about
// one core busy; loop_replicated has a writer on the primary and a reader,
// which pauses between requests, on the replica.
var clientCounts = map[string]int{"query_cold": 1, "query_repeat": 1, "ingest_messy": 1, "loop_replicated": 2}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	bin      string // the imprecise binary
	dir      string // scratch directory of this run; data directories live here
	outDir   string // where the span files go
	dtdPath  string
	nodes    []*node // every child started, so that none outlives the run
	cal      *calibrator

	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
}

func newBench(workload string, seed int64, seconds float64, trace bool, sz sizes, bin, dir, outDir string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, seconds: seconds, trace: trace, sz: sz, bin: bin, dir: dir, outDir: outDir,
		cal: startCalibrator(), e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, d := range perLayer { // a metric that does not apply to the workload reads 0
		b.layer[d.Name] = 0
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b.dtdPath = filepath.Join(dir, "movie.dtd")
	return b, os.WriteFile(b.dtdPath, []byte(corpus.DTD), 0o644)
}

// close kills whatever is still running and removes the scratch directory.
func (b *bench) close() {
	b.cal.close()
	for _, n := range b.nodes {
		n.kill()
	}
	os.RemoveAll(b.dir)
}

func (b *bench) start(args []string) (*node, time.Duration, error) {
	n, took, err := startNode(b.bin, args)
	if err == nil {
		b.nodes = append(b.nodes, n)
	}
	return n, took, err
}

// check counts one verification; a false one is a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 10 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// run executes the workload; the child-process phase always runs, the
// traced in-process replay only with -trace.
func (b *bench) run() error {
	var err error
	switch b.workload {
	case "query_cold":
		err = b.runQuery(false)
	case "query_repeat":
		err = b.runQuery(true)
	case "ingest_messy":
		err = b.runIngest()
	case "loop_replicated":
		err = b.runLoop()
	default:
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	if err != nil || !b.trace {
		return err
	}
	return b.runTrace()
}

// setupMedian runs setup sz.setups times, keeps the server of the last
// run and reports the median wall time as setup_s. A run's set-up is
// everything between exec of the server and the first timed request:
// recovery of an empty directory, preload and a warm-up round. Like every
// timing it is expressed at the reference speed (see calibrator).
func (b *bench) setupMedian(setup func(dataDir string) ([]*node, error)) ([]*node, error) {
	var took samples
	for i := 0; ; i++ {
		dataDir := filepath.Join(b.dir, fmt.Sprintf("data%d", i))
		start := time.Now()
		nodes, err := setup(dataDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took.add(time.Since(start).Seconds() / b.cal.slowdown(start, time.Now()))
		if i == b.sz.setups-1 {
			b.e2e["setup_s"] = median(took)
			return nodes, nil
		}
		for _, n := range nodes {
			n.kill()
		}
		os.RemoveAll(dataDir)
	}
}

// restart crashes the server and times one recovery of its directory,
// exec to the first 200 from /healthz: the server opens its listener only
// after every database is recovered. verify runs against the recovered
// server, which is returned. One recovery is one sample: catalog.restart_s
// is a per-layer figure, not a bounded one (see README.md).
func (b *bench) restart(n *node, verify func(c *client, base string)) (*node, error) {
	n.kill()
	c := newClient()
	next, banner, err := b.start(n.args)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	status, _, ms, err := c.do("GET", next.url+"/healthz", nil)
	b.check(err == nil && status == 200, "restart: /healthz: status %d err %v", status, err)
	b.layer["catalog.restart_s"] = banner.Seconds() + ms/1e3
	verify(c, next.url)
	return next, nil
}

// serverConfig is the core configuration `serve -dtd movie.dtd -rules
// genre,title,year` runs with, for the in-process reference database and
// the traced replay.
func serverConfig() core.Config {
	return core.Config{
		Schema: dtd.MustParse(corpus.DTD),
		Rules:  []oracle.Rule{oracle.GenreRule(), oracle.TitleRule(), oracle.YearRule()},
	}
}

// probeHTTP measures the round trip of a request that does no work (GET
// /healthz) on the loaded, idle server: the cost of the HTTP stack and the
// router that every other request also pays.
func (b *bench) probeHTTP(c *client, base string) {
	var lat samples
	for i := 0; i < 200; i++ {
		if status, _, ms, err := c.do("GET", base+"/healthz", nil); err == nil && status == 200 {
			lat.add(ms)
		}
	}
	b.layer["server.http_overhead_ms_p50"] = median(lat)
}
