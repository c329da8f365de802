package main

import (
	"encoding/json"
	"fmt"

	"repro/benchmark/corpus"
)

// ingestSequence generates the messy sequence every round posts.
func (b *bench) ingestSequence() []corpus.Source {
	u := corpus.NewUniverse(b.seed, b.sz.universe)
	return u.Sequence(b.seed+10, corpus.Messy, b.sz.sources, b.sz.perSource)
}

// runIngest is ingest_messy: one writer. Each round creates a database,
// posts the whole messy sequence into it synchronously — a cold oracle memo
// and a document that grows with every source, so integrate and oracle do
// most of the work — and drops the database of sz.kept rounds ago. A round
// is a lap: every round posts the same sources into an empty database, so
// it is the same work. Rounds repeat until the time is up; the databases
// still standing are then crashed and recovered, which replays every
// source from the write-ahead log: the only workload that exercises
// recovery of a long tail.
func (b *bench) runIngest() error {
	seq := b.ingestSequence()
	c := newClient()
	// round posts the sequence into a fresh database and returns the replies
	// and latencies.
	round := func(base, db string) ([]integrateReply, samples, error) {
		if err := c.call("PUT", base+"/dbs/"+db, nil, nil); err != nil {
			return nil, nil, err
		}
		reps := make([]integrateReply, len(seq))
		var lat samples
		for i, s := range seq {
			status, body, ms, err := c.do("POST", base+"/dbs/"+db+"/integrate", []byte(s.XML))
			b.attempted++
			if err != nil || status != 200 {
				b.fail("integrate source %d into %s: status %d err %v: %s", i, db, status, err, firstLine(body))
				continue
			}
			lat.add(ms)
			if err := json.Unmarshal(body, &reps[i]); err != nil {
				b.fail("integrate source %d into %s: reply is not JSON: %v", i, db, err)
			}
		}
		return reps, lat, nil
	}

	nodes, err := b.setupMedian(func(dataDir string) ([]*node, error) {
		n, _, err := b.start(serveArgs(dataDir, b.dtdPath))
		if err != nil {
			return nil, err
		}
		// Warm-up round: the runtime grows its heap and the directory its
		// first files before anything is timed.
		if _, _, err := round(n.url, "warm"); err != nil {
			return nil, err
		}
		return []*node{n}, c.call("DELETE", n.url+"/dbs/warm", nil, nil)
	})
	if err != nil {
		return err
	}
	n := nodes[0]
	b.attempted, b.failed, b.problems = 0, 0, nil // the set-up rounds are not operations of the run

	var all, first []integrateReply
	var walBytes, srcBytes float64
	var names []string
	var lastStats []statsReply
	lp := startLaps(b.cal, n)
	for r := 0; lp.elapsed() < b.seconds; r++ {
		db := fmt.Sprintf("r%04d", r)
		reps, lat, err := round(n.url, db)
		if err != nil {
			return err
		}
		if len(lat) == 0 {
			return fmt.Errorf("no integration of round %d completed", r)
		}
		all = append(all, reps...)
		// Integration is deterministic: the sequence gives the same replies
		// every round. The first round is also checked against the reference
		// below.
		if first == nil {
			first = reps
		} else {
			for i := range reps {
				b.check(reps[i] == first[i], "round %d source %d: reply differs from the first round's", r, i)
			}
		}
		st, err := c.stats(n.url, db)
		if err != nil {
			return err
		}
		walBytes += float64(st.WAL.AppendedBytes)
		for _, s := range seq {
			srcBytes += float64(len(s.XML))
		}
		names = append(names, db)
		lastStats = append(lastStats, st)
		if len(names) > b.sz.kept {
			if err := c.call("DELETE", n.url+"/dbs/"+names[0], nil, nil); err != nil {
				return err
			}
			names, lastStats = names[1:], lastStats[1:]
		}
		lp.end(lat)
	}
	lp.report(b)
	b.e2e["wal_bytes_per_source_byte"] = walBytes / srcBytes
	b.layer["http.integrate_ops_s"] = b.e2e["ops_s"]
	b.layer["http.integrate_p50_ms"] = b.e2e["p50_ms"]
	b.layer["server.integrate.p99_ms"] = percentile(lp.all, 99)
	b.recordIntegrateCounters(all)
	for _, st := range lastStats {
		b.recordDatabase(st)
	}
	b.probeHTTP(c, n.url)

	// Crash and recover: every acknowledged integration of the kept
	// databases must be present and the world count unchanged.
	n, err = b.restart(n, func(c *client, base string) {
		for i, db := range names {
			st, err := c.stats(base, db)
			want := lastStats[i]
			b.check(err == nil && st.Integrations == want.Integrations && st.Worlds == want.Worlds && st.WAL.LastSeq == want.WAL.LastSeq,
				"%s after restart: %d integrations, seq %d, worlds %s; want %d, %d, %s (err %v)",
				db, st.Integrations, st.WAL.LastSeq, st.Worlds, want.Integrations, want.WAL.LastSeq, want.Worlds, err)
		}
	})
	if err != nil {
		return err
	}
	b.recordRecovery(c, n.url, names)
	n.kill()

	// Correctness: the first round against the in-process reference, source
	// by source.
	ref, err := referenceDB(nil)
	if err != nil {
		return err
	}
	for i, s := range seq {
		if _, err := ref.IntegrateXMLString(s.XML); err != nil {
			return fmt.Errorf("reference: source %d: %w", i, err)
		}
		t := ref.Tree()
		got := first[i]
		b.check(got.Worlds == t.WorldCount().String() && got.ChoicePoints == t.ChoicePoints() && got.LogicalNodes == t.NodeCount(),
			"source %d: server reports %s worlds, %d choice points, %d nodes; the reference %s, %d, %d",
			i, got.Worlds, got.ChoicePoints, got.LogicalNodes, t.WorldCount(), t.ChoicePoints(), t.NodeCount())
	}
	return nil
}
