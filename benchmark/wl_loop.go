package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/benchmark/corpus"
	"repro/internal/core"
)

// loopDB is one database of loop_replicated and the fixed script the
// writer runs against it: reset to the preloaded document, then one
// integrate → query → feedback iteration per source of the cycle.
type loopDB struct {
	name    string
	preload []corpus.Source
	cycle   []corpus.Source
	queries []string // queries[k] asks for the directors of a movie source k shares with its predecessor
	truth   []string // truth[k] is that movie's director as the ground truth spells it
	reads   []string // what the reader asks the replica
	base    []byte   // the preloaded document as exported by the server

	seq    uint64  // ops journaled so far, counted from the acknowledgements
	k      int     // next position in the cycle; 0 resets first
	posted float64 // bytes of mutation bodies sent
}

// iteration is what one loop iteration returned, kept for the comparison
// with the reference.
type iteration struct {
	db, k                     int
	integrated                integrateReply
	answers                   []answer
	value                     string // the answer rejected
	worldsBefore, worldsAfter string // around the feedback
}

func newLoopDB(u *corpus.Universe, seed int64, i int, sz sizes) *loopDB {
	d := &loopDB{name: fmt.Sprintf("l%d", i)}
	seq := u.Sequence(seed+20+int64(i), corpus.Clean, sz.loopPreload+sz.loopIters, sz.loopSource)
	d.preload, d.cycle = seq[:sz.loopPreload], seq[sz.loopPreload:]
	for _, s := range d.cycle {
		for _, r := range s.Records {
			if r.Overlap {
				d.queries = append(d.queries, fmt.Sprintf(`//movie[title=%q]/director`, r.Title))
				d.truth = append(d.truth, u.Movies[r.Movie].Director)
				break
			}
		}
	}
	for _, s := range d.preload {
		for _, r := range s.Records {
			d.reads = append(d.reads, fmt.Sprintf(`//movie[title=%q]/year`, r.Title), fmt.Sprintf(`//movie[title=%q]/director`, r.Title))
		}
	}
	return d
}

// toReject returns the top-ranked uncertain answer the ground truth rejects:
// the one a user reading the ranking would strike out first. The truth
// spells a director "First Last", so the "Last, First" spelling of the
// other convention is a wrong answer.
//
// Only rejections are issued. Confirming an answer makes the server
// enumerate every world of the document (feedback.Options.GlobalWorldLimit,
// 100 000 by default), which a database of a few sources already exceeds;
// rejecting conditions each choice point on its own and scales.
func toReject(answers []answer, truth string) (answer, bool) {
	for _, a := range answers {
		if a.P > 1e-9 && a.P < 1-1e-9 && a.Value != truth {
			return a, true
		}
	}
	return answer{}, false
}

// loopLatencies are the request latencies of one iteration, and its wall
// time from the first request to the last reply.
type loopLatencies struct{ integrate, query, feedback, total float64 }

// post sends one mutation of d to the primary and counts it.
func (b *bench) post(c *client, base string, d *loopDB, path string, body []byte) ([]byte, float64, error) {
	status, reply, ms, err := c.do("POST", base+"/dbs/"+d.name+path, body)
	b.attempted++
	if err != nil || status != 200 {
		b.fail("%s %s step %d: status %d err %v: %s", d.name, path, d.k, status, err, firstLine(reply))
		return nil, 0, fmt.Errorf("%s%s failed", d.name, path)
	}
	d.seq++
	d.posted += float64(len(body))
	return reply, ms, nil
}

// step runs the next iteration of d's script, putting the preloaded
// document back first when a cycle starts. The reset is not part of the
// iteration's latency.
func (b *bench) step(c *client, base string, di int, d *loopDB) (iteration, loopLatencies, error) {
	if d.k == 0 {
		if _, _, err := b.post(c, base, d, "/integrate?mode=replace", d.base); err != nil {
			return iteration{}, loopLatencies{}, err
		}
	}
	return b.iterate(c, base, di, d)
}

// iterate runs the next step of d's script against the primary: the paper's
// loop of integrating a source, asking a question and rejecting the top
// uncertain answer the ground truth calls wrong.
func (b *bench) iterate(c *client, base string, di int, d *loopDB) (iteration, loopLatencies, error) {
	it := iteration{db: di, k: d.k}
	var lat loopLatencies
	start := time.Now()
	reply, ms, err := b.post(c, base, d, "/integrate", []byte(d.cycle[d.k].XML))
	if err != nil {
		return it, lat, err
	}
	lat.integrate = ms
	var ir integrateReply
	if err := json.Unmarshal(reply, &ir); err != nil {
		return it, lat, err
	}
	it.integrated = ir

	q := d.queries[d.k]
	status, reply, ms, err := c.do("GET", queryURL(base, d.name, q), nil)
	b.attempted++
	if err != nil || status != 200 {
		b.fail("%s query step %d: status %d err %v", d.name, d.k, status, err)
		return it, lat, fmt.Errorf("%s query failed", d.name)
	}
	lat.query = ms
	var qr queryReply
	if err := json.Unmarshal(reply, &qr); err != nil {
		return it, lat, err
	}
	it.answers = qr.Answers
	a, ok := toReject(qr.Answers, d.truth[d.k])
	if !ok {
		b.fail("%s step %d: %s has no uncertain wrong answer: %v", d.name, d.k, q, qr.Answers)
		return it, lat, fmt.Errorf("%s: nothing to reject", d.name)
	}
	it.value = a.Value
	body, _ := json.Marshal(map[string]any{"query": q, "value": it.value, "correct": false})
	reply, ms, err = b.post(c, base, d, "/feedback", body)
	if err != nil {
		return it, lat, err
	}
	lat.feedback = ms
	var fr feedbackReply
	if err := json.Unmarshal(reply, &fr); err != nil {
		return it, lat, err
	}
	it.worldsBefore, it.worldsAfter = fr.WorldsBefore, fr.WorldsAfter
	lat.total = float64(time.Since(start).Nanoseconds()) / 1e6
	d.k = (d.k + 1) % len(d.cycle)
	return it, lat, nil
}

// appliedSeqs reads a node's applied sequence per database, and the
// largest gap to the primary the node itself reports.
func appliedSeqs(c *client, base string) (map[string]uint64, uint64, error) {
	var h healthReply
	if err := c.call("GET", base+"/healthz?verbose=1", nil, &h); err != nil {
		return nil, 0, err
	}
	applied := map[string]uint64{}
	var gap uint64
	for _, d := range h.Databases {
		applied[d.Name] = d.AppliedSeq
		if d.PrimarySeq > d.AppliedSeq {
			gap = max(gap, d.PrimarySeq-d.AppliedSeq)
		}
	}
	return applied, gap, nil
}

// waitApplied polls until the node has applied every database's tracked
// sequence.
func waitApplied(c *client, base string, dbs []*loopDB) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		applied, _, err := appliedSeqs(c, base)
		if err != nil {
			return err
		}
		behind := ""
		for _, d := range dbs {
			if got, ok := applied[d.name]; !ok || got < d.seq {
				behind = fmt.Sprintf("%s at %d of %d", d.name, got, d.seq)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not catch up: %s", behind)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The pauses of loop_replicated's two callers. Primary and replica do the
// same work side by side — the replica re-executes every op — so a writer
// and a reader that never paused would ask the machine's two cores for more
// than two cores' worth, and the latencies would measure the queue for a
// core: on a shared host that queue grows with every slow phase. With the
// pauses the servers use about 1.3 cores.
const (
	writerPause = 8 * time.Millisecond // after each iteration: the caller reads the ranking before the next source
	readerPause = 5 * time.Millisecond // after each reply from the replica
	lagPoll     = 2 * time.Millisecond // between two looks at the replica's applied sequences
)

// ack tells the reader that the primary acknowledged d's op seq.
type ack struct {
	db  string
	seq uint64
	at  time.Time
}

// replicaReader is the reader of loop_replicated: it asks the replica one
// question after another, pausing readerPause after each reply, and, while
// an acknowledged write is not yet visible there, polls the replica's
// applied sequences instead, every lagPoll: much finer than the lag.
type replicaReader struct {
	dbs []*loopDB
	url string
	// acks is sized so that the writer never waits for the reader: an ack
	// that does not fit is dropped, which loses a lag sample, not a write.
	acks chan ack
	stop chan struct{}

	lag, lat  samples // replication lag; query latency on the replica
	lagOpsMax uint64
	bad       []string
}

func (r *replicaReader) run() {
	c := newClient()
	var pending []ack
	for i := 0; ; i++ {
		select {
		case <-r.stop:
			return
		default:
		}
		for more := true; more; {
			select {
			case a := <-r.acks:
				pending = append(pending, a)
			default:
				more = false
			}
		}
		if len(pending) == 0 {
			d := r.dbs[i%len(r.dbs)]
			status, _, ms, err := c.do("GET", queryURL(r.url, d.name, d.reads[(i/len(r.dbs))%len(d.reads)]), nil)
			if err != nil || status != 200 {
				r.bad = append(r.bad, fmt.Sprintf("replica query: status %d err %v", status, err))
				continue
			}
			r.lat.add(ms)
			// Pause, but not through an acknowledgement: the lag runs from it.
			select {
			case a := <-r.acks:
				pending = append(pending, a)
			case <-r.stop:
				return
			case <-time.After(readerPause):
			}
			continue
		}
		applied, gap, err := appliedSeqs(c, r.url)
		if err != nil {
			r.bad = append(r.bad, fmt.Sprintf("replica /healthz: %v", err))
			pending = nil
			continue
		}
		r.lagOpsMax = max(r.lagOpsMax, gap)
		now := time.Now()
		waiting := pending[:0]
		for _, a := range pending {
			if applied[a.db] >= a.seq {
				r.lag.add(float64(now.Sub(a.at).Nanoseconds()) / 1e6)
			} else {
				waiting = append(waiting, a)
			}
		}
		if pending = waiting; len(pending) > 0 {
			time.Sleep(lagPoll)
		}
	}
}

// runLoop is loop_replicated: a primary and one read replica. One writer
// runs the loop round-robin over the databases on the primary while one
// reader asks the replica questions and, whenever a write was just
// acknowledged, polls the replica until it shows that write — the
// replication lag an application reading from the replica would see.
//
// Sources are small and clean, so integration itself is cheap next to the
// journal, the index rebuild of every swap, shipping and re-applying: the
// same layers as the other workloads, used differently. Every swap changes
// the tree digest, so the result cache is cold by design. Each database is
// reset to its preloaded state every sz.loopIters iterations; that bounds
// the documents, lets the run go on for any length of time, and makes
// every cycle the same work: a cycle of all databases is a lap.
func (b *bench) runLoop() error {
	u := corpus.NewUniverse(b.seed, b.sz.universe)
	dbs := make([]*loopDB, b.sz.loopDBs)
	for i := range dbs {
		dbs[i] = newLoopDB(u, b.seed, i, b.sz)
	}
	w := newClient()
	nodes, err := b.setupMedian(func(dataDir string) ([]*node, error) {
		primary, _, err := b.start(serveArgs(filepath.Join(dataDir, "primary"), b.dtdPath))
		if err != nil {
			return nil, err
		}
		for _, d := range dbs {
			d.seq, d.k, d.posted = 0, 0, 0
			if err := w.call("PUT", primary.url+"/dbs/"+d.name, nil, nil); err != nil {
				return nil, err
			}
			for _, s := range d.preload {
				if _, _, err := b.post(w, primary.url, d, "/integrate", []byte(s.XML)); err != nil {
					return nil, err
				}
			}
			status, doc, _, err := w.do("GET", primary.url+"/dbs/"+d.name+"/export", nil)
			if err != nil || status != 200 {
				return nil, fmt.Errorf("export %s: status %d err %v", d.name, status, err)
			}
			d.base = doc
		}
		// The replica starts after the preload, so it bootstraps every
		// database at once from a snapshot and not a membership poll later.
		replica, _, err := b.start(serveArgs(filepath.Join(dataDir, "replica"), b.dtdPath, "-replica-of", primary.url))
		if err != nil {
			return nil, err
		}
		if err := waitApplied(w, replica.url, dbs); err != nil {
			return nil, err
		}
		// Warm-up round: one iteration on every database, shipped too.
		for i, d := range dbs {
			if _, _, err := b.step(w, primary.url, i, d); err != nil {
				return nil, err
			}
			d.k = 0
		}
		return []*node{primary, replica}, waitApplied(w, replica.url, dbs)
	})
	if err != nil {
		return err
	}
	primary, replica := nodes[0], nodes[1]
	b.attempted, b.failed, b.problems = 0, 0, nil // the set-up iterations are not operations of the run

	reader := &replicaReader{dbs: dbs, url: replica.url, acks: make(chan ack, 256), stop: make(chan struct{})}
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		reader.run()
	}()

	// The writer (this goroutine). A lap is one cycle of every database:
	// reset, then sz.loopIters iterations each, round-robin — the same
	// requests against the same documents every lap.
	var intLat, qryLat, fbLat samples
	var its []iteration
	lp := startLaps(b.cal, primary, replica)
	var loopErr error
	for i := 0; lp.elapsed() < b.seconds && loopErr == nil; {
		var lat samples
		for k := 0; k < len(dbs)*b.sz.loopIters; k, i = k+1, i+1 {
			d := dbs[i%len(dbs)]
			it, l, err := b.step(w, primary.url, i%len(dbs), d)
			if err != nil {
				loopErr = err
				break
			}
			select {
			case reader.acks <- ack{d.name, d.seq, time.Now()}:
			default: // the reader is behind: one lag sample less
			}
			lat.add(l.total)
			intLat.add(l.integrate)
			qryLat.add(l.query)
			fbLat.add(l.feedback)
			its = append(its, it)
			time.Sleep(writerPause)
		}
		if loopErr == nil {
			lp.end(lat)
		}
	}
	elapsed := lp.elapsed()
	close(reader.stop)
	rd.Wait()
	lag, readLat := reader.lag, reader.lat
	if loopErr != nil {
		return loopErr
	}
	b.attempted += len(readLat) + len(reader.bad)
	for _, p := range reader.bad {
		b.fail("%s", p)
	}

	// The replica must converge to the primary.
	if err := waitApplied(w, replica.url, dbs); err != nil {
		b.check(false, "%v", err)
	}
	var walBytes, posted, ops float64
	final := make([]statsReply, len(dbs))
	for i, d := range dbs {
		ps, err := w.stats(primary.url, d.name)
		if err != nil {
			return err
		}
		rs, err := w.stats(replica.url, d.name)
		if err != nil {
			return err
		}
		b.check(ps.WAL.LastSeq == d.seq, "%s: primary journaled %d ops, the writer counted %d", d.name, ps.WAL.LastSeq, d.seq)
		b.check(rs.Worlds == ps.Worlds && rs.Integrations == ps.Integrations && rs.FeedbackCount == ps.FeedbackCount && rs.WAL.LastSeq == ps.WAL.LastSeq,
			"%s: replica has %s worlds, %d integrations, %d feedback events at seq %d; primary %s, %d, %d at %d",
			d.name, rs.Worlds, rs.Integrations, rs.FeedbackCount, rs.WAL.LastSeq, ps.Worlds, ps.Integrations, ps.FeedbackCount, ps.WAL.LastSeq)
		final[i] = ps
		walBytes += float64(ps.WAL.AppendedBytes)
		posted += d.posted
		ops += float64(d.seq)
		b.recordDatabase(ps)
	}
	wire := final[0].Wire // process-wide: every database's /stats carries the same
	b.layer["replica.wire_bytes_per_op"] = ratio(float64(wire.WireBytes), ops)
	b.layer["replica.wire_compression_ratio"] = ratio(float64(wire.PayloadBytes), float64(wire.WireBytes))
	var repl replicationReply
	if err := w.call("GET", replica.url+"/replication", nil, &repl); err != nil {
		return err
	}
	for _, d := range repl.Databases {
		b.layer["replica.divergences"] += float64(d.Divergences)
		b.layer["replica.snapshots_installed"] += float64(d.SnapshotsInstalled)
	}
	b.check(b.layer["replica.divergences"] == 0, "replica diverged %g time(s)", b.layer["replica.divergences"])

	n := float64(len(its))
	lp.report(b)
	b.e2e["wal_bytes_per_source_byte"] = walBytes / posted
	b.layer["http.integrate_ops_s"] = n / elapsed
	b.layer["http.integrate_p50_ms"] = percentile(intLat, 50)
	b.layer["server.integrate.p99_ms"] = percentile(intLat, 99)
	b.layer["http.query_ops_s"] = (n + float64(len(readLat))) / elapsed
	b.layer["http.query_p50_ms"] = percentile(qryLat, 50)
	b.layer["http.query_p99_ms"] = percentile(qryLat, 99)
	b.layer["server.loop_query.p99_ms"] = percentile(readLat, 99)
	b.layer["http.feedback_p50_ms"] = percentile(fbLat, 50)
	b.layer["server.feedback.p99_ms"] = percentile(fbLat, 99)
	integrated := make([]integrateReply, len(its))
	for i, it := range its {
		integrated[i] = it.integrated
		before, _ := strconv.ParseFloat(it.worldsBefore, 64)
		after, _ := strconv.ParseFloat(it.worldsAfter, 64)
		b.layer["feedback.log10_worlds_removed_per_event"] += (math.Log10(before) - math.Log10(after)) / n
	}
	b.recordIntegrateCounters(integrated)
	b.layer["replica.lag_ms_p50"] = percentile(lag, 50)
	b.layer["replica.lag_ops_max"] = float64(reader.lagOpsMax)
	b.probeHTTP(w, primary.url)
	replica.kill()

	// Bring every database to the same write-ahead tail, so that each
	// recovery replays the same number of ops whatever the moment the clock
	// stopped. Compaction runs every 64 ops in the background; the target
	// is far from that edge.
	for i, d := range dbs {
		for tries := 0; ; tries++ {
			st, err := w.stats(primary.url, d.name)
			if err != nil {
				return err
			}
			if tail := int(st.WAL.TailOps); tail >= b.sz.loopTail && tail < b.sz.loopTail+3 {
				final[i] = st
				break
			}
			if tries > 200 {
				return fmt.Errorf("%s: write-ahead tail does not reach %d", d.name, b.sz.loopTail)
			}
			if _, _, err := b.step(w, primary.url, i, d); err != nil {
				return err
			}
		}
	}
	names := make([]string, len(dbs))
	for i, d := range dbs {
		names[i] = d.name
	}
	primary, err = b.restart(primary, func(c *client, base string) {
		for i, d := range dbs {
			st, err := c.stats(base, d.name)
			want := final[i]
			b.check(err == nil && st.Worlds == want.Worlds && st.Integrations == want.Integrations && st.FeedbackCount == want.FeedbackCount && st.WAL.LastSeq == want.WAL.LastSeq,
				"%s after restart: %s worlds, %d integrations, %d feedback events at seq %d; want %s, %d, %d at %d (err %v)",
				d.name, st.Worlds, st.Integrations, st.FeedbackCount, st.WAL.LastSeq, want.Worlds, want.Integrations, want.FeedbackCount, want.WAL.LastSeq, err)
		}
	})
	if err != nil {
		return err
	}
	b.recordRecovery(w, primary.url, names)
	primary.kill()

	// Correctness: every iteration against an in-process reference that
	// runs each database's cycle once from the same exported document.
	for di, d := range dbs {
		want, err := referenceCycle(d)
		if err != nil {
			return err
		}
		for _, it := range its {
			if it.db == di {
				b.checkIteration(d, it, want[it.k])
			}
		}
	}
	return nil
}

// referenceCycle runs one cycle of d's script in process.
func referenceCycle(d *loopDB) ([]iteration, error) {
	ref, err := core.OpenXML(bytes.NewReader(d.base), serverConfig())
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out := make([]iteration, len(d.cycle))
	for k, s := range d.cycle {
		if _, err := ref.IntegrateXMLString(s.XML); err != nil {
			return nil, fmt.Errorf("reference: %s source %d: %w", d.name, k, err)
		}
		t := ref.Tree()
		it := iteration{k: k, integrated: integrateReply{Worlds: t.WorldCount().String(), LogicalNodes: t.NodeCount()}}
		res, err := ref.Query(d.queries[k])
		if err != nil {
			return nil, err
		}
		for _, a := range res.Answers {
			it.answers = append(it.answers, answer{a.Value, a.P})
		}
		a, ok := toReject(it.answers, d.truth[k])
		if !ok {
			return nil, fmt.Errorf("reference: %s step %d has no uncertain wrong answer", d.name, k)
		}
		it.value = a.Value
		ev, err := ref.Feedback(d.queries[k], it.value, false)
		if err != nil {
			return nil, fmt.Errorf("reference: %s feedback %d: %w", d.name, k, err)
		}
		it.worldsAfter = ev.WorldsAfter.String()
		out[k] = it
	}
	return out, nil
}

func (b *bench) checkIteration(d *loopDB, got, want iteration) {
	ok := got.integrated.Worlds == want.integrated.Worlds && got.integrated.LogicalNodes == want.integrated.LogicalNodes && got.value == want.value &&
		got.worldsAfter == want.worldsAfter && len(got.answers) == len(want.answers)
	for i := 0; ok && i < len(got.answers); i++ {
		g, w := got.answers[i], want.answers[i]
		ok = g.Value == w.Value && g.P >= 0 && g.P <= 1 && math.Abs(g.P-w.P) <= 1e-9
	}
	b.check(ok, "%s step %d: server (%s worlds, judged %q, then %s) differs from the reference (%s, %q, %s)",
		d.name, got.k, got.integrated.Worlds, got.value, got.worldsAfter, want.integrated.Worlds, want.value, want.worldsAfter)
}
