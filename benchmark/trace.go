package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	imprecise "repro"
	"repro/benchmark/corpus"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/queryindex"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xmlcodec"
)

// The traced replay. Tracing inside the server is a later change, so the
// benchmark records spans around the calls into each layer's public
// functions: in process, on one goroutine (integration and evaluation run
// with one worker), replaying the workload's first ops against three
// copies of the database that see the identical sequence —
//
//	server   the HTTP handler, via httptest
//	catalog  a catalog-backed database, called directly
//	core     a bare core database, no journal
//
// — plus leaf spans on the same inputs (decode, integrate with timed rules,
// normalize, index build, compile, evaluate, JSON-encode, condition, WAL
// record encode, page encode/decode, replicated apply, and now and then
// compaction, snapshot save/load and the binary tree codec). The copies
// stand in for nesting: the server span contains the catalog call, which
// contains the core call, which contains the leaves; a layer's self time is
// its span minus its children, summed over the ops; a share is that sum over
// the sum of the root spans; and where the children of a layer claim more
// than it had, the excess is reported as trace.unattributed_share, the error
// of the decomposition.

// span is one timed call. Spans of one op share op_id.
type span struct {
	Op     int    `json:"op_id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceOp is one operation of a workload, set-up included, as the replay
// needs it.
type traceOp struct {
	kind  string // create | drop | integrate | replace | query | feedback
	db    string
	body  string // XML, or the query
	truth string // feedback: the director the ground truth names
}

type tracer struct {
	b      *bench
	epoch  time.Time
	op     int
	spans  []span
	cur    map[string]float64 // durations (ms) of the current op's spans, by name
	byName map[string]samples

	cfg      core.Config
	handler  http.Handler
	cat      *catalog.Catalog // behind nothing: called directly
	follower *catalog.Catalog // applies what cat ships
	bare     map[string]*core.Database
	memo     map[string]*integrate.Memo // the leaf integrations' own cross-call memo
	base     map[string]string          // loop_replicated: the document a reset puts back
	ruleMs   float64                    // time inside the rules since it was last zeroed
	orc      *oracle.Oracle             // the timed rules
	tab      codec.SharedStrings
	dir      string

	// Self time per class (read, write) and layer, and the root time per
	// class.
	self map[string]map[string]float64
	root map[string]float64

	writes                        int
	evals, exact, answers, visits float64
	pruned                        float64
	decodeBytes                   float64
	snapshotBytes, snapshotNodes  float64
}

// timedRule adds the time spent inside an oracle rule to *ms.
type timedRule struct {
	oracle.Rule
	ms *float64
}

func (r timedRule) Apply(a, b *pxml.Node) oracle.Verdict {
	start := time.Now()
	v := r.Rule.Apply(a, b)
	*r.ms += float64(time.Since(start).Nanoseconds()) / 1e6
	return v
}

// do times fn as a span of the current op.
func (t *tracer) do(name, parent string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.spans = append(t.spans, span{t.op, name, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	ms := float64(end.Sub(start).Nanoseconds()) / 1e6
	t.cur[name] += ms
	t.derive(name, ms)
	if err != nil {
		return fmt.Errorf("trace op %d %s: %w", t.op, name, err)
	}
	return nil
}

// note records a span whose duration was measured elsewhere (the summed
// rule time).
func (t *tracer) note(name, parent string, ms float64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{t.op, name, parent, now - int64(ms*1e6), now})
	t.cur[name] += ms
	t.derive(name, ms)
}

// settle attributes the current op: self[layer] = parent − children, summed
// signed over the ops of a class.
func (t *tracer) settle(class string, root float64, selfs map[string]float64) {
	t.root[class] += root
	for layer, ms := range selfs {
		t.self[class][layer] += ms
	}
}

// derive keeps a quantity computed from spans of different copies (a self
// time) for its median. It is signed, like the sums in settle: the copies
// run one after another, so their difference carries the noise of both,
// and only the median or the sum over all ops means something.
func (t *tracer) derive(name string, ms float64) {
	t.byName[name] = append(t.byName[name], ms)
}

// serve sends one request through the HTTP handler; its span is the root of
// the op and is named after the verb.
func (t *tracer) serve(verb, method, path string, body string) error {
	return t.do("server."+verb, "", func() error {
		rec := httptest.NewRecorder()
		t.handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, firstLine(rec.Body.Bytes()))
		}
		return nil
	})
}

// runTrace replays the workload's first sz.traceOps ops and fills the
// per-layer timing metrics.
func (b *bench) runTrace() error {
	ops, err := b.traceOps()
	if err != nil {
		return err
	}
	t := &tracer{b: b, epoch: time.Now(), cur: map[string]float64{}, byName: map[string]samples{},
		bare: map[string]*core.Database{}, memo: map[string]*integrate.Memo{}, base: map[string]string{},
		self: map[string]map[string]float64{"read": {}, "write": {}}, root: map[string]float64{}, dir: filepath.Join(b.dir, "trace")}
	t.cfg = serverConfig()
	t.cfg.Integration.Workers = 1
	t.cfg.Query.Workers = 1
	timed := make([]oracle.Rule, len(t.cfg.Rules))
	for i, r := range t.cfg.Rules {
		timed[i] = timedRule{r, &t.ruleMs}
	}
	t.orc = oracle.New(timed)
	// No background compactor: the replay is one goroutine, and compaction
	// is a traced leaf of its own.
	opts := catalog.Options{Config: t.cfg, RootTag: "catalog", CompactEvery: -1}
	open := func(name string) (*catalog.Catalog, error) { return catalog.Open(filepath.Join(t.dir, name), opts) }
	hcat, err := open("server")
	if err != nil {
		return err
	}
	defer hcat.Close()
	if t.cat, err = open("catalog"); err != nil {
		return err
	}
	defer t.cat.Close()
	if t.follower, err = open("follower"); err != nil {
		return err
	}
	defer t.follower.Close()
	t.handler = imprecise.NewCatalogHTTPHandler(hcat, imprecise.ServerOptions{})

	for i, op := range ops {
		t.op = i
		clear(t.cur)
		if err := t.replay(op); err != nil {
			return err
		}
	}
	if err := t.writeSpans(); err != nil {
		return err
	}
	t.report()
	return nil
}

func (t *tracer) replay(op traceOp) error {
	path := "/dbs/" + op.db
	switch op.kind {
	case "create":
		if err := t.serve("create", "PUT", path, ""); err != nil {
			return err
		}
		if _, err := t.cat.Create(op.db); err != nil {
			return err
		}
		if _, err := t.follower.Create(op.db); err != nil {
			return err
		}
		empty, err := xmlcodec.DecodeString("<catalog/>")
		if err != nil {
			return err
		}
		t.bare[op.db], err = core.Open(empty, t.cfg)
		t.memo[op.db] = integrate.NewMemo(0)
		return err
	case "drop":
		if err := t.serve("drop", "DELETE", path, ""); err != nil {
			return err
		}
		delete(t.bare, op.db)
		delete(t.memo, op.db)
		if err := t.cat.Drop(op.db); err != nil {
			return err
		}
		return t.follower.Drop(op.db)
	case "integrate":
		return t.integrate(op, path)
	case "replace":
		return t.replace(op, path)
	case "query":
		_, err := t.query(op, path)
		return err
	case "feedback":
		return t.feedback(op, path)
	}
	return fmt.Errorf("trace: unknown op kind %q", op.kind)
}

func (t *tracer) integrate(op traceOp, path string) error {
	if err := t.serve("integrate", "POST", path+"/integrate", op.body); err != nil {
		return err
	}
	var src *pxml.Tree
	err := t.do("xmlcodec.decode", "server.integrate", func() (err error) {
		src, err = xmlcodec.Decode(strings.NewReader(op.body))
		return err
	})
	if err != nil {
		return err
	}
	t.decodeBytes += float64(len(op.body))
	cdb, err := t.cat.Get(op.db)
	if err != nil {
		return err
	}
	if err := t.do("catalog", "server.integrate", func() error { _, err := cdb.Core().IntegrateTree(src); return err }); err != nil {
		return err
	}
	bare := t.bare[op.db]
	prev := bare.Tree()
	if err := t.do("core", "catalog", func() error { _, err := bare.IntegrateTree(src); return err }); err != nil {
		return err
	}
	// Leaves: the merge with timed rules, then what core does around it.
	var raw, norm *pxml.Tree
	t.ruleMs = 0
	err = t.do("integrate.merge", "core", func() (err error) {
		raw, _, err = integrate.Integrate(prev, src, integrate.Config{Oracle: t.orc, Schema: t.cfg.Schema, Workers: 1, Memo: t.memo[op.db], SkipNormalize: true})
		return err
	})
	if err != nil {
		return err
	}
	t.note("oracle.rules", "integrate.merge", t.ruleMs)
	if err := t.do("pxml.normalize", "core", func() (err error) { norm, err = raw.Normalize(); return err }); err != nil {
		return err
	}
	_ = t.do("queryindex.build", "core", func() error { queryindex.Build(norm); return nil })
	t.decide(prev, src)
	c := t.cur
	t.settle("write", c["server.integrate"], map[string]float64{
		"server":     c["server.integrate"] - c["catalog"] - c["xmlcodec.decode"],
		"xmlcodec":   c["xmlcodec.decode"],
		"catalog":    c["catalog"] - c["core"],
		"core":       c["core"] - c["integrate.merge"] - c["pxml.normalize"] - c["queryindex.build"],
		"integrate":  c["integrate.merge"] - c["oracle.rules"],
		"oracle":     c["oracle.rules"],
		"pxml":       c["pxml.normalize"],
		"queryindex": c["queryindex.build"],
	})
	t.derive("core.integrate.self", c["core"]-c["integrate.merge"]-c["pxml.normalize"]-c["queryindex.build"])
	t.derive("catalog.journal", c["catalog"]-c["core"])
	return t.afterWrite(cdb, bare)
}

// decide times the oracle on real pairs: the first movies of the document
// against the first of the source.
func (t *tracer) decide(doc, src *pxml.Tree) {
	as, bs := pxml.ElementChildren(doc.RootElements()[0]), pxml.ElementChildren(src.RootElements()[0])
	for i := 0; i < min(len(as), 8); i++ {
		for j := 0; j < min(len(bs), 8); j++ {
			_ = t.do("oracle.decide", "", func() error { _, err := t.orc.Decide(as[i], bs[j]); return err })
		}
	}
}

func (t *tracer) replace(op traceOp, path string) error {
	if t.base[op.db] == "" {
		// The first reset of a database: its preloaded document, exported
		// as the server's /export does.
		var buf strings.Builder
		if err := t.bare[op.db].ExportXML(&buf, xmlcodec.EncodeOptions{Indent: "  "}); err != nil {
			return err
		}
		t.base[op.db] = buf.String()
	}
	op.body = t.base[op.db]
	if err := t.serve("replace", "POST", path+"/integrate?mode=replace", op.body); err != nil {
		return err
	}
	var doc *pxml.Tree
	err := t.do("xmlcodec.decode", "server.replace", func() (err error) {
		doc, err = xmlcodec.Decode(strings.NewReader(op.body))
		return err
	})
	if err != nil {
		return err
	}
	t.decodeBytes += float64(len(op.body))
	cdb, err := t.cat.Get(op.db)
	if err != nil {
		return err
	}
	if err := t.do("catalog", "server.replace", func() error { return cdb.Core().ReplaceTree(doc) }); err != nil {
		return err
	}
	bare := t.bare[op.db]
	if err := t.do("core", "catalog", func() error { return bare.ReplaceTree(doc) }); err != nil {
		return err
	}
	t.memo[op.db].Purge()
	_ = t.do("queryindex.build", "core", func() error { queryindex.Build(doc); return nil })
	c := t.cur
	t.settle("write", c["server.replace"], map[string]float64{
		"server":     c["server.replace"] - c["catalog"] - c["xmlcodec.decode"],
		"xmlcodec":   c["xmlcodec.decode"],
		"catalog":    c["catalog"] - c["core"],
		"core":       c["core"] - c["queryindex.build"],
		"queryindex": c["queryindex.build"],
	})
	return t.afterWrite(cdb, bare)
}

func (t *tracer) query(op traceOp, path string) (query.Result, error) {
	var res query.Result
	if err := t.serve("query", "GET", path+"/query?q="+url.QueryEscape(op.body), ""); err != nil {
		return res, err
	}
	cdb, err := t.cat.Get(op.db)
	if err != nil {
		return res, err
	}
	if err := t.do("catalog", "server.query", func() error { _, err := cdb.Core().QueryEval(op.body, t.cfg.Query); return err }); err != nil {
		return res, err
	}
	bare := t.bare[op.db]
	if err := t.do("core", "catalog", func() (err error) { res, err = bare.QueryEval(op.body, t.cfg.Query); return err }); err != nil {
		return res, err
	}
	// Leaves. When core answered from its result cache they are not its
	// children: they are recorded detached, for the query.* timings only.
	parent := "core"
	if res.Plan != nil && res.Plan.CacheHit {
		parent = ""
	}
	tree, idx := bare.Tree(), bare.Index()
	var q *query.Query
	if err := t.do("query.compile", parent, func() (err error) { q, err = query.Compile(op.body); return err }); err != nil {
		return res, err
	}
	var cold query.Result
	if err := t.do("query.eval", parent, func() (err error) {
		cold, err = query.EvalIndexed(tree, q, query.Options{Workers: 1}, idx)
		return err
	}); err != nil {
		return res, err
	}
	_ = t.do("query.eval_wN", "", func() error {
		_, err := query.EvalIndexed(tree, q, query.Options{Workers: runtime.NumCPU()}, idx)
		return err
	})
	_ = t.do("server.json_encode", "server.query", func() error {
		resp := server.QueryResponse{Query: op.body, Method: string(cold.Method), Answers: make([]server.QueryAnswer, 0, len(cold.Answers))}
		for _, a := range cold.Answers {
			resp.Answers = append(resp.Answers, server.QueryAnswer{Value: a.Value, P: a.P})
		}
		_, err := json.Marshal(resp)
		return err
	})
	t.evals++
	if cold.Method == query.MethodExact {
		t.exact++
	}
	t.answers += float64(len(cold.Answers))
	t.visits += float64(cold.Exec.NodeVisits)
	if cold.Plan != nil {
		t.pruned += cold.Plan.PrunedFraction
	}
	c := t.cur
	selfs := map[string]float64{"server": c["server.query"] - c["core"], "core": c["core"]}
	if parent != "" {
		selfs["core"] = c["core"] - c["query.compile"] - c["query.eval"]
		selfs["query"] = c["query.compile"] + c["query.eval"]
	}
	t.settle("read", c["server.query"], selfs)
	t.derive("core.query.self", selfs["core"])
	return res, nil
}

func (t *tracer) feedback(op traceOp, path string) error {
	bare := t.bare[op.db]
	res, err := bare.QueryEval(op.body, t.cfg.Query) // untimed: only to pick the answer
	if err != nil {
		return err
	}
	var answers []answer
	for _, a := range res.Answers {
		answers = append(answers, answer{a.Value, a.P})
	}
	a, ok := toReject(answers, op.truth)
	if !ok {
		return fmt.Errorf("trace: %s has no uncertain wrong answer", op.body)
	}
	body, _ := json.Marshal(map[string]any{"query": op.body, "value": a.Value, "correct": false})
	if err := t.serve("feedback", "POST", path+"/feedback", string(body)); err != nil {
		return err
	}
	cdb, err := t.cat.Get(op.db)
	if err != nil {
		return err
	}
	if err := t.do("catalog", "server.feedback", func() error { _, err := cdb.Core().Feedback(op.body, a.Value, false); return err }); err != nil {
		return err
	}
	prev := bare.Tree()
	if err := t.do("core", "catalog", func() error { _, err := bare.Feedback(op.body, a.Value, false); return err }); err != nil {
		return err
	}
	t.memo[op.db].Purge()
	q, err := query.Compile(op.body)
	if err != nil {
		return err
	}
	sess := feedback.NewSession(prev, t.cfg.Feedback)
	if err := t.do("feedback.apply", "core", func() error { _, err := sess.Apply(q, a.Value, feedback.Incorrect); return err }); err != nil {
		return err
	}
	_ = t.do("queryindex.build", "core", func() error { queryindex.Build(sess.Tree()); return nil })
	c := t.cur
	t.settle("write", c["server.feedback"], map[string]float64{
		"server":     c["server.feedback"] - c["catalog"],
		"catalog":    c["catalog"] - c["core"],
		"core":       c["core"] - c["feedback.apply"] - c["queryindex.build"],
		"feedback":   c["feedback.apply"],
		"queryindex": c["queryindex.build"],
	})
	t.derive("catalog.journal", c["catalog"]-c["core"])
	return t.afterWrite(cdb, bare)
}

// afterWrite runs the leaves that follow a committed mutation: the WAL
// record encode, shipping the op to the follower, and every sz.traceStore
// writes the rarer storage paths.
func (t *tracer) afterWrite(cdb *catalog.DB, bare *core.Database) error {
	t.writes++
	last := cdb.LastSeq()
	var recs []catalog.WALRecord
	if err := t.do("catalog.ops_since", "", func() (err error) { recs, err = cdb.OpsSince(last-1, 1); return err }); err != nil {
		return err
	}
	if len(recs) != 1 {
		return fmt.Errorf("trace: OpsSince(%d) returned %d records", last-1, len(recs))
	}
	if err := t.do("catalog.wal_record_encode", "", func() error {
		_, err := catalog.EncodeWALRecordShared(recs[0], &t.tab)
		return err
	}); err != nil {
		return err
	}
	page := &replica.WALPage{Database: cdb.Name(), Since: last - 1, LastSeq: last, Records: recs}
	var wire bytes.Buffer
	if err := t.do("replica.page_encode", "", func() error { return replica.EncodeWALPage(&wire, page) }); err != nil {
		return err
	}
	var got *replica.WALPage
	if err := t.do("replica.page_decode", "", func() (err error) { got, err = replica.DecodeWALPage(&wire); return err }); err != nil {
		return err
	}
	fdb, err := t.follower.Get(cdb.Name())
	if err != nil {
		return err
	}
	if err := t.do("replica.apply", "", func() error { _, err := fdb.ApplyReplicated(got.Records[0]); return err }); err != nil {
		return err
	}
	if t.writes%t.b.sz.traceStore != 0 {
		return nil
	}
	if err := t.do("catalog.compact", "", cdb.Compact); err != nil {
		return err
	}
	tree := bare.Tree()
	snap := filepath.Join(t.dir, "snapshot")
	if err := t.do("store.save", "", func() error { _, err := store.Save(snap, tree, t.cfg.Schema, "trace"); return err }); err != nil {
		return err
	}
	entries, _ := os.ReadDir(snap)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			t.snapshotBytes += float64(info.Size())
		}
	}
	t.snapshotNodes += float64(tree.PhysicalNodeCount())
	if err := t.do("store.load", "", func() error { _, err := store.Load(snap); return err }); err != nil {
		return err
	}
	var tab codec.SharedStrings
	_ = t.do("pxml.append_binary", "", func() error { tree.AppendBinaryShared(nil, &tab); return nil })
	arena := tree.AppendBinary(nil) // self-contained, so that it decodes without the table
	return t.do("pxml.decode_arena", "", func() error { _, err := pxml.DecodeArena(arena); return err })
}

func (t *tracer) writeSpans() error {
	out := filepath.Join(t.b.outDir, "trace-"+t.b.workload+".json")
	if err := os.MkdirAll(t.b.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.b.workload, t.b.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// report turns the spans into the per-layer timing metrics.
func (t *tracer) report() {
	m := t.b.layer
	p := func(name string, q float64) float64 { return percentile(t.byName[name], q) }
	m["server.query.handler_ms_p50"] = p("server.query", 50)
	m["server.integrate.handler_ms_p50"] = p("server.integrate", 50)
	m["server.query.json_encode_us_p50"] = p("server.json_encode", 50) * 1e3
	m["core.query.self_us_p50"] = max(0, p("core.query.self", 50)) * 1e3
	m["core.integrate.self_ms_p50"] = max(0, p("core.integrate.self", 50))
	m["query.compile_us_p50"] = p("query.compile", 50) * 1e3
	m["query.eval_ms_p50"] = p("query.eval", 50)
	m["query.eval_ms_p99"] = p("query.eval", 99)
	m["query.eval_w1_ms_p50"] = p("query.eval", 50)
	m["query.eval_wN_ms_p50"] = p("query.eval_wN", 50)
	m["query.parallel_speedup"] = ratio(p("query.eval", 50), p("query.eval_wN", 50))
	m["query.plan.exact_share"] = ratio(t.exact, t.evals)
	m["query.visits_per_answer"] = ratio(t.visits, t.answers)
	m["queryindex.pruned_visit_share"] = ratio(t.pruned, t.evals)
	m["queryindex.build_ms_p50"] = p("queryindex.build", 50)
	m["integrate.merge_ms_p50"] = p("integrate.merge", 50)
	m["oracle.decide_us_p50"] = p("oracle.decide", 50) * 1e3
	m["oracle.busy_share"] = ratio(sum(t.byName["oracle.rules"]), sum(t.byName["integrate.merge"]))
	m["xmlcodec.decode_ms_p50"] = p("xmlcodec.decode", 50)
	m["xmlcodec.decode_mb_s"] = ratio(t.decodeBytes/1e6, sum(t.byName["xmlcodec.decode"])/1e3)
	m["feedback.apply_ms_p50"] = p("feedback.apply", 50)
	m["catalog.journal_ms_p50"] = max(0, p("catalog.journal", 50))
	m["catalog.wal_record_encode_us_p50"] = p("catalog.wal_record_encode", 50) * 1e3
	m["catalog.compact_ms_p50"] = p("catalog.compact", 50)
	m["store.save_ms_p50"] = p("store.save", 50)
	m["store.load_ms_p50"] = p("store.load", 50)
	m["store.snapshot_bytes_per_node"] = ratio(t.snapshotBytes, t.snapshotNodes)
	m["replica.apply_ms_p50"] = p("replica.apply", 50)
	m["replica.page_encode_us_p50"] = p("replica.page_encode", 50) * 1e3
	m["replica.page_decode_us_p50"] = p("replica.page_decode", 50) * 1e3
	m["pxml.append_binary_us_p50"] = p("pxml.append_binary", 50) * 1e3
	m["pxml.decode_arena_us_p50"] = p("pxml.decode_arena", 50) * 1e3
	m["pxml.normalize_ms_p50"] = p("pxml.normalize", 50)
	// A negative sum means the children claimed more than their parent had:
	// that time is what the decomposition cannot place.
	excess := 0.0
	share := func(class, layer string) float64 {
		return ratio(max(0, t.self[class][layer]), t.root[class])
	}
	for _, class := range []string{"read", "write"} {
		for _, ms := range t.self[class] {
			excess += max(0, -ms)
		}
	}
	for _, layer := range []string{"server", "core", "query"} {
		m[layer+".read_share"] = share("read", layer)
	}
	for _, layer := range []string{"server", "core", "queryindex", "integrate", "oracle", "xmlcodec", "catalog"} {
		m[layer+".write_share"] = share("write", layer)
	}
	m["trace.unattributed_share"] = ratio(excess, t.root["read"]+t.root["write"])
}

// traceOps lists the workload's first ops, set-up included, from the same
// generators the child-process run uses.
func (b *bench) traceOps() ([]traceOp, error) {
	var ops []traceOp
	limit := b.sz.traceOps
	switch b.workload {
	case "query_cold", "query_repeat":
		in, err := b.queryInputs(b.workload == "query_repeat")
		if err != nil {
			return nil, err
		}
		ops = append(ops, traceOp{kind: "create", db: "bench"})
		for _, s := range in.srcs {
			ops = append(ops, traceOp{kind: "integrate", db: "bench", body: s.XML})
		}
		limit += len(ops)
		for i := 0; len(ops) < limit; i++ {
			ops = append(ops, traceOp{kind: "query", db: "bench", body: in.ask[i%len(in.ask)]})
		}
	case "ingest_messy":
		seq := b.ingestSequence()
		for r := 0; len(ops) < limit; r++ {
			db := fmt.Sprintf("r%04d", r)
			ops = append(ops, traceOp{kind: "create", db: db})
			for _, s := range seq {
				ops = append(ops, traceOp{kind: "integrate", db: db, body: s.XML})
			}
			if r >= b.sz.kept {
				ops = append(ops, traceOp{kind: "drop", db: fmt.Sprintf("r%04d", r-b.sz.kept)})
			}
		}
	case "loop_replicated":
		u := corpus.NewUniverse(b.seed, b.sz.universe)
		dbs := make([]*loopDB, b.sz.loopDBs)
		for i := range dbs {
			dbs[i] = newLoopDB(u, b.seed, i, b.sz)
			ops = append(ops, traceOp{kind: "create", db: dbs[i].name})
			for _, s := range dbs[i].preload {
				ops = append(ops, traceOp{kind: "integrate", db: dbs[i].name, body: s.XML})
			}
		}
		limit += len(ops)
		for i := 0; len(ops) < limit; i++ {
			d := dbs[i%len(dbs)]
			k := (i / len(dbs)) % len(d.cycle)
			if k == 0 {
				// The body is filled in at replay time, from the document
				// the set-up ops produced.
				ops = append(ops, traceOp{kind: "replace", db: d.name})
			}
			ops = append(ops,
				traceOp{kind: "integrate", db: d.name, body: d.cycle[k].XML},
				traceOp{kind: "query", db: d.name, body: d.queries[k]},
				traceOp{kind: "feedback", db: d.name, body: d.queries[k], truth: d.truth[k]})
		}
	}
	return ops, nil
}
