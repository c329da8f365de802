package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/benchmark/corpus"
	"repro/internal/core"
	"repro/internal/xmlcodec"
)

// queryPool builds the distinct query strings of the issue's six templates
// (plus title → genre, without which there are fewer than 2 048) over
// everything the sources mention and every title of the universe — a
// look-up that finds nothing is traffic too. The values of a template come
// in a seeded order, and the templates are interleaved evenly: any stretch
// of the pool holds them in the same proportion, so that equal stretches
// are equal work (see laps).
func queryPool(u *corpus.Universe, srcs []corpus.Source, rng *rand.Rand) []string {
	templates := []string{`//movie[title=%q]/year`, `//movie[title=%q]/director`, `//movie[title=%q]/genre`,
		`//movie[year=%q]/title`, `//movie[director=%q]/year`, `//movie[genre=%q]/title`}
	const byTitle, byYear, byDirector, byGenre = 0, 3, 4, 5
	args := make([][]string, len(templates))
	seen := map[string]bool{}
	add := func(t int, arg string) {
		if key := templates[t] + arg; !seen[key] {
			seen[key] = true
			args[t] = append(args[t], arg)
		}
	}
	for _, s := range srcs {
		for _, r := range s.Records {
			add(byTitle, r.Title)
			add(byTitle+1, r.Title)
			add(byTitle+2, r.Title)
			if r.Year != "" {
				add(byYear, r.Year)
			}
			d := u.Movies[r.Movie].Director
			add(byDirector, d)
			first, last, _ := strings.Cut(d, " ")
			add(byDirector, last+", "+first)
			for _, g := range u.Movies[r.Movie].Genres {
				add(byGenre, g)
			}
		}
	}
	for _, m := range u.Movies {
		add(byTitle, m.Title)
		add(byTitle+1, m.Title)
	}
	// Position i of a template with n values sits at (i+½)/n of the way
	// through the pool.
	type entry struct {
		at float64
		q  string
	}
	var pool []entry
	for t, list := range args {
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for i, arg := range list {
			pool = append(pool, entry{(float64(i) + 0.5) / float64(len(list)), fmt.Sprintf(templates[t], arg)})
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].at < pool[j].at })
	qs := make([]string, len(pool))
	for i, e := range pool {
		qs[i] = e.q
	}
	return qs
}

// repeatSet picks the query strings of query_repeat: title look-ups of
// movies the database holds. They answer with one to three values, so the
// size of a cached reply does not depend on which string the seed ranks
// first.
func repeatSet(srcs []corpus.Source, rng *rand.Rand, n int) []string {
	var titles []string
	seen := map[string]bool{}
	for _, s := range srcs {
		for _, r := range s.Records {
			if !seen[r.Title] {
				seen[r.Title] = true
				titles = append(titles, r.Title)
			}
		}
	}
	rng.Shuffle(len(titles), func(i, j int) { titles[i], titles[j] = titles[j], titles[i] })
	var qs []string
	for _, t := range titles {
		if len(qs) >= n {
			break
		}
		qs = append(qs, fmt.Sprintf(`//movie[title=%q]/year`, t), fmt.Sprintf(`//movie[title=%q]/director`, t))
	}
	return qs[:min(n, len(qs))]
}

// queryInputs are the generated inputs of a query workload: the preloaded
// sources and the requests of the timed phase, which asks ask[i%len(ask)]
// as its i-th question, lap questions to a lap.
type queryInputs struct {
	srcs []corpus.Source
	ask  []string
	lap  int
	warm []string // asked once during set-up
}

func (b *bench) queryInputs(repeat bool) (queryInputs, error) {
	u := corpus.NewUniverse(b.seed, b.sz.universe)
	in := queryInputs{srcs: u.Sequence(b.seed+1, corpus.Messy, b.sz.sources, b.sz.perSource)}
	rng := rand.New(rand.NewSource(b.seed + 2))
	if repeat {
		// One lap's draws, replayed every lap: every lap is the same work.
		qs := repeatSet(in.srcs, rng, b.sz.repeatSet)
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(qs)-1))
		in.lap, in.warm = b.sz.repeatLap, qs
		for i := 0; i < in.lap; i++ {
			in.ask = append(in.ask, qs[zipf.Uint64()])
		}
		return in, nil
	}
	pool := queryPool(u, in.srcs, rng)
	if len(pool) < b.sz.distinct {
		return in, fmt.Errorf("query pool has %d strings, want %d", len(pool), b.sz.distinct)
	}
	// An even thinning of the pool keeps the mix; the whole-document query
	// takes the last place.
	for i := 0; i < b.sz.distinct-1; i++ {
		in.ask = append(in.ask, pool[i*len(pool)/(b.sz.distinct-1)])
	}
	in.ask = append(in.ask, `//movie/director`)
	in.lap = b.sz.coldLap
	// The end of the cycle: evicted long before the timed phase reaches it.
	in.warm = in.ask[len(in.ask)-min(len(in.ask), 64):]
	return in, nil
}

// runQuery is query_cold (repeat false) and query_repeat (repeat true): one
// closed-loop client against one database preloaded with messy sources.
//
// query_cold cycles through more distinct strings than the result cache
// (512) and the compiled-query cache (256) hold, in a fixed order, so an
// LRU never has the next string: every request parses, plans, walks the
// anchors and enumerates. query_repeat draws 64 strings under Zipf(1.1)
// after warming each once, so nearly every request is a result-cache hit
// and time goes to routing, cache look-up and JSON encoding.
func (b *bench) runQuery(repeat bool) error {
	const db = "bench"
	in, err := b.queryInputs(repeat)
	if err != nil {
		return err
	}
	srcs := in.srcs

	var preload []integrateReply
	var srcBytes float64
	nodes, err := b.setupMedian(func(dataDir string) ([]*node, error) {
		n, _, err := b.start(serveArgs(dataDir, b.dtdPath))
		if err != nil {
			return nil, err
		}
		c := newClient()
		if err := c.call("PUT", n.url+"/dbs/"+db, nil, nil); err != nil {
			return nil, err
		}
		preload, srcBytes = preload[:0], 0
		for _, s := range srcs {
			var rep integrateReply
			if err := c.call("POST", n.url+"/dbs/"+db+"/integrate", []byte(s.XML), &rep); err != nil {
				return nil, err
			}
			preload = append(preload, rep)
			srcBytes += float64(len(s.XML))
		}
		// Warm-up round: query_repeat fills the result cache with its whole
		// set; query_cold only warms the connection and the runtime, since
		// its strings are evicted before they come round.
		for _, q := range in.warm {
			if err := c.call("GET", queryURL(n.url, db, q), nil, nil); err != nil {
				return nil, err
			}
		}
		return []*node{n}, nil
	})
	if err != nil {
		return err
	}
	n := nodes[0]
	c := newClient()
	before, err := c.stats(n.url, db)
	if err != nil {
		return err
	}

	// Timed phase: whole laps until the time is up.
	type sampled struct {
		q    string
		body []byte
	}
	var kept []sampled
	var size samples
	lp := startLaps(b.cal, n)
	for i := 0; lp.elapsed() < b.seconds; {
		var lat samples
		for k := 0; k < in.lap; k, i = k+1, i+1 {
			q := in.ask[i%len(in.ask)]
			status, body, ms, err := c.do("GET", queryURL(n.url, db, q), nil)
			b.attempted++
			if err != nil || status != 200 {
				b.fail("query %q: status %d err %v", q, status, err)
				continue
			}
			lat.add(ms)
			size.add(float64(len(body)))
			if i%100 == 0 { // the 1 % checked against the reference below
				kept = append(kept, sampled{q, body})
			}
		}
		if len(lat) == 0 {
			return fmt.Errorf("no query of a lap completed")
		}
		lp.end(lat)
	}
	lp.report(b)

	after, err := c.stats(n.url, db)
	if err != nil {
		return err
	}
	// No write happens in the timed phase; the ratio is that of the preload.
	b.e2e["wal_bytes_per_source_byte"] = float64(after.WAL.AppendedBytes) / srcBytes

	b.layer["http.query_ops_s"] = b.e2e["ops_s"]
	b.layer["http.query_p50_ms"] = b.e2e["p50_ms"]
	b.layer["http.query_p99_ms"] = percentile(lp.all, 99)
	b.layer["server.query.resp_bytes_p50"] = median(size)
	hits := float64(after.ResultCache.Hits - before.ResultCache.Hits)
	misses := float64(after.ResultCache.Misses - before.ResultCache.Misses)
	b.layer["core.result_cache.hit_rate"] = ratio(hits, hits+misses)
	hits = float64(after.QueryCache.Hits - before.QueryCache.Hits)
	misses = float64(after.QueryCache.Misses - before.QueryCache.Misses)
	b.layer["core.query_cache.hit_rate"] = ratio(hits, hits+misses)
	pooled := float64(after.Query.PooledTasks - before.Query.PooledTasks)
	inline := float64(after.Query.InlineTasks - before.Query.InlineTasks)
	b.layer["query.pooled_task_share"] = ratio(pooled, pooled+inline)
	b.recordIntegrateCounters(preload)
	b.recordDatabase(after)
	b.probeHTTP(c, n.url)
	n.kill()

	// Correctness: the sampled replies against an in-process database fed
	// the same sources. It is built after the timed phase so that it takes
	// no CPU from it.
	ref, err := referenceDB(srcs)
	if err != nil {
		return err
	}
	for _, s := range kept {
		b.checkAnswers(ref, s.q, s.body)
	}
	return nil
}

// referenceDB integrates the sources into a bare in-process database
// configured like the server.
func referenceDB(srcs []corpus.Source) (*core.Database, error) {
	empty, err := xmlcodec.DecodeString("<catalog/>")
	if err != nil {
		return nil, err
	}
	ref, err := core.Open(empty, serverConfig())
	if err != nil {
		return nil, err
	}
	for i, s := range srcs {
		if _, err := ref.IntegrateXMLString(s.XML); err != nil {
			return nil, fmt.Errorf("reference: source %d: %w", i, err)
		}
	}
	return ref, nil
}

// checkAnswers compares one HTTP query reply with the reference: the same
// values, probabilities within 1e-9 and inside [0,1].
func (b *bench) checkAnswers(ref *core.Database, q string, body []byte) {
	var got queryReply
	if err := json.Unmarshal(body, &got); err != nil {
		b.check(false, "query %q: reply is not JSON: %v", q, err)
		return
	}
	want, err := ref.Query(q)
	if err != nil {
		b.check(false, "query %q: reference: %v", q, err)
		return
	}
	ok := len(got.Answers) == len(want.Answers)
	for _, a := range got.Answers {
		ok = ok && a.P >= 0 && a.P <= 1 && math.Abs(a.P-want.P(a.Value)) <= 1e-9 && want.P(a.Value) > 0
	}
	b.check(ok, "query %q: %d answers differ from the reference's %d", q, len(got.Answers), len(want.Answers))
}

// recordIntegrateCounters averages what the integrate replies reported.
func (b *bench) recordIntegrateCounters(reps []integrateReply) {
	var calls, undecided, enumerated, pruned, truncated, spliced float64
	for _, r := range reps {
		calls += float64(r.OracleCalls)
		undecided += float64(r.UndecidedPairs)
		enumerated += float64(r.MatchingsEnumerated)
		pruned += float64(r.MatchingsPruned)
		truncated += float64(r.TruncatedComponents)
		spliced += float64(r.SplicedChildren)
	}
	n := float64(len(reps))
	b.layer["integrate.oracle_calls_per_source"] = ratio(calls, n)
	b.layer["integrate.undecided_per_source"] = ratio(undecided, n)
	b.layer["integrate.matchings_enumerated_per_source"] = ratio(enumerated, n)
	b.layer["integrate.matchings_pruned_share"] = ratio(pruned, enumerated)
	b.layer["integrate.truncated_components"] = truncated
	// Of the top-level elements in play, those no candidate touched.
	b.layer["integrate.spliced_share"] = ratio(spliced, spliced+undecided+enumerated)
}

// recordDatabase notes the counters of one database's /stats.
func (b *bench) recordDatabase(st statsReply) {
	b.layer["pxml.nodes_final"] += float64(st.LogicalNodes)
	b.layer["pxml.choice_points_final"] += float64(st.ChoicePoints)
	b.layer["codec.strtab_entries"] += float64(st.WAL.StrTabEntries)
	b.layer["catalog.compactions"] += float64(st.WAL.Compactions)
	b.layer["core.memo.hit_rate"] = ratio(float64(st.Memo.Hits), float64(st.Memo.Hits+st.Memo.Misses))
	if st.WAL.Appends > 0 {
		b.layer["catalog.wal_bytes_per_op"] = float64(st.WAL.AppendedBytes) / float64(st.WAL.Appends)
	}
}

// recordRecovery notes what the recovered server reports about its start.
func (b *bench) recordRecovery(c *client, base string, dbs []string) {
	recovered := 0.0
	for _, db := range dbs {
		st, err := c.stats(base, db)
		if err != nil {
			b.fail("stats of %s after restart: %v", db, err)
			continue
		}
		recovered += float64(st.WAL.RecoveredOps)
		b.layer["store.mmap_loads"] = float64(st.Store.MMapLoads) // process-wide
	}
	b.layer["catalog.recovered_ops"] = recovered
	b.layer["catalog.recover_ms_per_op"] = ratio(b.layer["catalog.restart_s"]*1e3, recovered)
}
