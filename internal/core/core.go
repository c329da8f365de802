// Package core ties the IMPrECISE subsystems together into the database
// module of the paper's §IV architecture: probabilistic XML storage at the
// bottom, data integration with "The Oracle" in the middle, and
// probabilistic querying plus user feedback on top.
//
// # Concurrency
//
// A Database is safe for concurrent use. It relies on the immutability of
// pxml nodes: every mutation (IntegrateTree, IntegrateBatch, Feedback,
// Normalize, ReplaceTree, LoadSnapshot, and ApplyOp replaying any of them)
// is a pure step from the current tree to its successor plus one call of
// mutate, the single commit. Under the writer mutex, mutate reads the
// settled tree, runs the step, warms the successor's summary (which the
// query planner reads), journals the op, and then — in one critical
// section of the read lock — swaps the tree, updates the histories,
// advances the applied sequence and purges the result cache. Readers
// (Query, Stats, ExportXML, …) snapshot the current tree under the read
// lock and then work entirely on that immutable snapshot without holding
// any lock, so they never block behind a long-running integration; they
// observe the pre-mutation document until the swap lands.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/xmlcodec"
)

// Config configures a Database.
type Config struct {
	// Schema is the DTD knowledge used to reject impossible
	// possibilities. Optional.
	Schema *dtd.Schema
	// Rules are the Oracle's knowledge rules (the generic deep-equal rule
	// is always added).
	Rules []oracle.Rule
	// OracleOptions tune the Oracle (prior, estimators, strictness).
	OracleOptions []oracle.Option
	// Integration tunes the integration engine. Its Oracle and Schema
	// fields are overwritten from this Config.
	Integration integrate.Config
	// Query sets default evaluation options.
	Query query.Options
	// Feedback bounds the conditioning work of feedback processing.
	Feedback feedback.Options
	// QueryCacheSize caps the compiled-query LRU cache (0 means
	// query.DefaultCacheCapacity).
	QueryCacheSize int
	// ResultCacheSize caps the evaluated-result LRU cache (0 means
	// query.DefaultResultCacheCapacity).
	ResultCacheSize int
}

// Database is a probabilistic XML database with near-automatic
// integration. It is safe for concurrent use: see the package
// documentation for the copy-on-write locking discipline.
type Database struct {
	// writeMu serializes mutations end to end (see mutate). Holding it
	// across the journal append and the swap is what makes journal
	// sequence order equal in-memory apply order. Lock order: writeMu → mu.
	writeMu sync.Mutex
	// mu guards the snapshot fields below. Readers hold it only long
	// enough to copy pointers; never during tree traversal.
	mu           sync.RWMutex
	tree         *pxml.Tree
	schema       *dtd.Schema
	integrations []integrate.Stats
	// events are the feedback events applied since the last integration.
	events []feedback.Event
	// warms / warmLast / warmTotal count and time the summary warm of
	// every published tree (the initial document's included) for /stats.
	warms     int64
	warmLast  time.Duration
	warmTotal time.Duration

	// journal receives one replayable record per mutation (see
	// journal.go); appliedSeq is the sequence of the last journaled
	// mutation the current tree reflects, advanced inside the same mu
	// critical section as the tree swap. journal itself is only touched
	// under writeMu.
	journal    Journal
	appliedSeq uint64

	// Immutable after Open.
	oracle  *oracle.Oracle
	cfg     Config
	queries *query.Cache
	results *query.ResultCache

	// Query concurrency accounting (see QueryRuntimeStats): a gauge of
	// in-flight evaluations plus counters for early aborts and anchors,
	// all updated lock-free on the query path.
	queryActive       atomic.Int64
	queryStarted      atomic.Int64
	queryCanceled     atomic.Int64
	queryBudgetAborts atomic.Int64
	queryAnchorsEnum  atomic.Int64
	queryAnchorsSkip  atomic.Int64
}

// Open creates a database over an initial document.
func Open(doc *pxml.Tree, cfg Config) (*Database, error) {
	if doc == nil {
		return nil, errors.New("core: nil document")
	}
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid document: %w", err)
	}
	took := warmSummary(doc)
	return &Database{
		tree:      doc,
		schema:    cfg.Schema,
		warms:     1,
		warmLast:  took,
		warmTotal: took,
		oracle:    oracle.New(cfg.Rules, cfg.OracleOptions...),
		cfg:       cfg,
		queries:   query.NewCache(cfg.QueryCacheSize),
		results:   query.NewResultCache(cfg.ResultCacheSize),
	}, nil
}

// warmSummary computes t's summary — every node's that has none yet, so a
// tree built around its predecessor's subtrees pays only for its new
// nodes — and returns how long that took. No query then pays for it.
func warmSummary(t *pxml.Tree) time.Duration {
	start := time.Now()
	t.Summary()
	return time.Since(start)
}

// mutate is the one commit every mutation goes through. Under writeMu it
// hands the settled tree to apply, the mutation's pure step, which returns
// the op to journal, the successor tree and the op's history update. It
// then warms the successor's summary outside mu, journals the op, and in
// one mu critical section swaps the tree, runs the history update,
// advances the applied sequence and purges the result cache (entries are
// keyed by tree digest, so stale hits were impossible anyway, but dead
// entries should not occupy capacity). A failing apply or journal leaves
// the database exactly as it was: an op is durable before any reader can
// observe it.
func (db *Database) mutate(apply func(cur *pxml.Tree) (Op, *pxml.Tree, func(), error)) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	op, next, history, err := apply(db.Tree())
	if err != nil {
		return err
	}
	took := warmSummary(next)
	var seq uint64
	if db.journal != nil {
		if seq, err = db.journal.Record(op); err != nil {
			return fmt.Errorf("core: journal %s op: %w", op.Kind, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tree = next
	history()
	if db.journal != nil {
		db.appliedSeq = seq
	}
	db.warms++
	db.warmLast = took
	db.warmTotal += took
	db.results.Purge()
	return nil
}

// OpenXML creates a database from an XML document (plain or with
// probabilistic markers).
func OpenXML(r io.Reader, cfg Config) (*Database, error) {
	tree, err := xmlcodec.Decode(r)
	if err != nil {
		return nil, err
	}
	return Open(tree, cfg)
}

// Tree returns the current probabilistic document (an immutable
// snapshot; later mutations swap in a new tree and never touch it).
func (db *Database) Tree() *pxml.Tree {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree
}

// Schema returns the current DTD knowledge (nil if none).
func (db *Database) Schema() *dtd.Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.schema
}

// Oracle returns the database's rule oracle.
func (db *Database) Oracle() *oracle.Oracle { return db.oracle }

// IntegrateTree integrates another document into the database. The
// database content becomes the probabilistic integration of the current
// document (source A) and the new one (source B).
func (db *Database) IntegrateTree(other *pxml.Tree) (*integrate.Stats, error) {
	_, stats, err := db.IntegrateTreeResult(other)
	return stats, err
}

// IntegrateTreeResult is IntegrateTree returning also the resulting
// tree, for callers that must report on exactly the document their own
// integration produced (a later writer may have swapped in a newer tree
// by the time Tree() is called).
func (db *Database) IntegrateTreeResult(other *pxml.Tree) (*pxml.Tree, *integrate.Stats, error) {
	statsList, res, err := db.integrateSources([]*pxml.Tree{other}, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, &statsList[0], nil
}

// integrationConfig assembles the engine config for one run: the
// database's oracle and current schema on top of the opener's tuning.
func (db *Database) integrationConfig() integrate.Config {
	cfg := db.cfg.Integration
	cfg.Oracle = db.oracle
	cfg.Schema = db.Schema()
	return cfg
}

// IntegrateBatch integrates a sequence of documents into the database in
// one writer-lock cycle: the sources fold left-to-right into the current
// document and the final tree is installed with a single pointer swap, so
// concurrent readers observe either the pre-batch document or the fully
// integrated one, never an intermediate state. The batch is atomic — if
// any source fails, the database keeps its pre-batch content and the
// error names the failing source. On success the per-source integration
// statistics and the resulting tree are returned.
func (db *Database) IntegrateBatch(sources []*pxml.Tree) ([]integrate.Stats, *pxml.Tree, error) {
	return db.integrateSources(sources, nil)
}

// integrateSources is the shared integrate/batch mutation. When recorded
// is non-nil (journal replay, replicated apply), it must hold one Stats
// per source: the engine's recomputed tree is installed — integration is
// deterministic, so it is pxml.Equal to the original — but the RECORDED
// stats go into the history and the journal, because a log written by an
// older version carries counters its own engine computed (a cross-call memo
// made them depend on history), which a replay must reproduce as recorded.
func (db *Database) integrateSources(sources []*pxml.Tree, recorded []integrate.Stats) ([]integrate.Stats, *pxml.Tree, error) {
	if len(sources) == 0 {
		return nil, nil, errors.New("core: empty integration batch")
	}
	if recorded != nil && len(recorded) != len(sources) {
		return nil, nil, fmt.Errorf("core: %d recorded stats for %d sources", len(recorded), len(sources))
	}
	var (
		statsList []integrate.Stats
		res       *pxml.Tree
	)
	// The whole fold runs on snapshots, outside mu: queries keep being
	// served from the pre-batch tree until the single swap.
	err := db.mutate(func(cur *pxml.Tree) (Op, *pxml.Tree, func(), error) {
		cfg := db.integrationConfig()
		statsList = make([]integrate.Stats, 0, len(sources))
		for i, src := range sources {
			next, stats, err := integrate.Integrate(cur, src, cfg)
			if err != nil {
				if len(sources) == 1 {
					return Op{}, nil, nil, err
				}
				return Op{}, nil, nil, fmt.Errorf("core: batch source %d of %d: %w", i+1, len(sources), err)
			}
			cur = next
			statsList = append(statsList, *stats)
		}
		if recorded != nil {
			statsList = append([]integrate.Stats(nil), recorded...)
		}
		res = cur
		op := Op{Kind: OpIntegrate, SourceTrees: sources, Stats: statsList}
		if len(sources) > 1 {
			op.Kind = OpBatch
		}
		return op, cur, func() {
			db.events = nil
			db.integrations = append(db.integrations, statsList...)
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return statsList, res, nil
}

// IntegrateBatchXML decodes multiple XML sources and integrates them in
// one writer-lock cycle (see IntegrateBatch). All sources are decoded
// before any integration starts, so a malformed source fails the batch
// without touching the database.
func (db *Database) IntegrateBatchXML(sources []io.Reader) ([]integrate.Stats, *pxml.Tree, error) {
	trees := make([]*pxml.Tree, len(sources))
	for i, r := range sources {
		t, err := xmlcodec.Decode(r)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch source %d of %d: %w", i+1, len(sources), err)
		}
		trees[i] = t
	}
	return db.IntegrateBatch(trees)
}

// IntegrateXML integrates an XML source into the database.
func (db *Database) IntegrateXML(r io.Reader) (*integrate.Stats, error) {
	tree, err := xmlcodec.Decode(r)
	if err != nil {
		return nil, err
	}
	return db.IntegrateTree(tree)
}

// IntegrateXMLString integrates an XML source given as a string.
func (db *Database) IntegrateXMLString(src string) (*integrate.Stats, error) {
	return db.IntegrateXML(strings.NewReader(src))
}

// IntegrationHistory returns the statistics of every integration run.
func (db *Database) IntegrationHistory() []integrate.Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]integrate.Stats(nil), db.integrations...)
}

// IntegrationCount returns the number of integration runs without
// copying the history (for cheap stats polling).
func (db *Database) IntegrationCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.integrations)
}

// Query compiles and evaluates a query, returning ranked answers.
// Compilation goes through the database's LRU cache, so repeated query
// strings skip parsing; evaluation goes through the planner and the
// result cache (see QueryEval).
func (db *Database) Query(src string) (query.Result, error) {
	return db.QueryEval(src, db.cfg.Query)
}

// QueryCompiled evaluates a compiled query against a snapshot of the
// current document, through the planner and the result cache.
func (db *Database) QueryCompiled(q *query.Query) (query.Result, error) {
	return db.evalCached(context.Background(), q, db.cfg.Query)
}

// DefaultQueryOptions returns the evaluation options the database was
// opened with, as a starting point for per-request overrides via
// QueryEval.
func (db *Database) DefaultQueryOptions() query.Options { return db.cfg.Query }

// QueryEval compiles src through the database's cache and evaluates it
// with the given options instead of the database defaults — for callers
// that override the method, sampling seed or budgets per request.
//
// Evaluation is planned: the tree's summary (warmed by the commit that
// published the tree) picks the cheapest applicable strategy when
// opts.Method is auto, and whole results are served from an LRU cache
// keyed by (tree digest, query text, options) — correctly invalidated by
// tree identity, since any mutation installs a tree with a new digest.
func (db *Database) QueryEval(src string, opts query.Options) (query.Result, error) {
	return db.QueryEvalCtx(context.Background(), src, opts)
}

// QueryEvalCtx is QueryEval with cancellation and budgets: evaluation
// aborts when ctx is canceled (an HTTP front end passes the request
// context, so abandoned queries stop computing) and when the options'
// TimeBudget/MaxNodeVisits run out. Early aborts are counted in
// QueryRuntimeStats.
func (db *Database) QueryEvalCtx(ctx context.Context, src string, opts query.Options) (query.Result, error) {
	q, err := db.queries.Compile(src)
	if err != nil {
		return query.Result{}, err
	}
	return db.evalCached(ctx, q, opts)
}

// evalCached evaluates a compiled query against a snapshot of the current
// tree, going through the result cache's singleflight: concurrent
// identical cold queries run one evaluation and share the result.
func (db *Database) evalCached(ctx context.Context, q *query.Query, opts query.Options) (query.Result, error) {
	if err := opts.Validate(); err != nil {
		return query.Result{}, err
	}
	db.queryStarted.Add(1)
	db.queryActive.Add(1)
	defer db.queryActive.Add(-1)
	// Read the purge generation before the snapshot: if a swap (and its
	// purge) lands anywhere after this point, the conditional insert
	// inside Do is dropped, so a slow evaluation can never re-insert an
	// entry for a retired document.
	gen := db.results.Generation()
	tree := db.Tree()
	res, outcome, err := db.results.Do(ctx, gen, tree.Digest(), q.String(), opts, func() (query.Result, error) {
		return query.EvalCtx(ctx, tree, q, opts)
	})
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			db.queryCanceled.Add(1)
		case errors.Is(err, query.ErrBudgetExhausted):
			db.queryBudgetAborts.Add(1)
		}
		// Budget aborts still carry the plan (BudgetExhausted set) for
		// explain; pass the partial result through with the error.
		return res, err
	}
	if outcome == query.DoExecuted {
		db.queryAnchorsEnum.Add(res.Exec.AnchorsEnumerated)
		db.queryAnchorsSkip.Add(res.Exec.AnchorsSkipped)
	}
	if outcome != query.DoExecuted && res.Plan != nil {
		// Flag results served without running an evaluation (a cache hit
		// or a collapsed concurrent execution) on a copy; the cached
		// result stays pristine.
		pl := *res.Plan
		pl.CacheHit = true
		res.Plan = &pl
	}
	return res, nil
}

// QueryRuntimeStats reports query-path concurrency accounting: how many
// evaluations are in flight right now, how many ever started, how many
// aborted early (client cancellation vs. budget exhaustion), and how many
// anchor subtrees the exact executor enumerated or skipped
// (query.ExecStats). Singleflight collapses
// live in ResultCacheStats.
type QueryRuntimeStats struct {
	Active       int64 `json:"active"`
	Started      int64 `json:"started"`
	Canceled     int64 `json:"canceled"`
	BudgetAborts int64 `json:"budget_aborts"`
	// AnchorsEnumerated/AnchorsSkipped sum the executed evaluations'
	// query.ExecStats counters of the same names.
	AnchorsEnumerated int64 `json:"anchors_enumerated"`
	AnchorsSkipped    int64 `json:"anchors_skipped"`
}

// QueryStats returns a snapshot of the query concurrency counters.
func (db *Database) QueryStats() QueryRuntimeStats {
	return QueryRuntimeStats{
		Active:            db.queryActive.Load(),
		Started:           db.queryStarted.Load(),
		Canceled:          db.queryCanceled.Load(),
		BudgetAborts:      db.queryBudgetAborts.Load(),
		AnchorsEnumerated: db.queryAnchorsEnum.Load(),
		AnchorsSkipped:    db.queryAnchorsSkip.Load(),
	}
}

// QueryCacheStats reports the compiled-query cache counters.
func (db *Database) QueryCacheStats() query.CacheStats {
	return db.queries.Stats()
}

// ResultCacheStats reports the evaluated-result cache counters.
func (db *Database) ResultCacheStats() query.ResultCacheStats {
	return db.results.Stats()
}

// Index returns the current document's summary. Kept for
// benchmark/trace.go; goes with it (ROADMAP item 3).
func (db *Database) Index() *pxml.Summary { return db.Tree().Summary() }

// IndexStats describes the summaries the query planner reads: how many
// the commits have warmed (one per published tree, plus the initial
// document) and how long the warms took, and what the current one holds.
type IndexStats struct {
	// Builds counts summary warms.
	Builds int64
	// LastBuild and TotalBuild are wall-clock warm times.
	LastBuild  time.Duration
	TotalBuild time.Duration
	// Tags and Elements describe the current summary: distinct element
	// tags, and element occurrences counted per path (an element shared
	// by k alternatives counts k times — see pxml.TagStat).
	Tags     int
	Elements int
}

// IndexStats reports summary warm statistics for /stats.
func (db *Database) IndexStats() IndexStats {
	db.mu.RLock()
	st := IndexStats{Builds: db.warms, LastBuild: db.warmLast, TotalBuild: db.warmTotal}
	tags := db.tree.Summary().Tags
	db.mu.RUnlock()
	st.Tags = tags.Len()
	for _, ts := range tags.Stats() {
		st.Elements += int(ts.Count)
	}
	return st
}

// Feedback applies a user judgment on a query answer, removing worlds
// that contradict it. The paper's demo left this unimplemented; here it
// updates the database in place.
func (db *Database) Feedback(querySrc, value string, correct bool) (feedback.Event, error) {
	return db.feedbackAt(querySrc, value, correct, time.Time{})
}

// feedbackAt is Feedback with an explicit event timestamp (zero means
// now); journal replay passes the recorded time so recovered histories
// match the originals exactly.
func (db *Database) feedbackAt(querySrc, value string, correct bool, when time.Time) (feedback.Event, error) {
	q, err := db.queries.Compile(querySrc)
	if err != nil {
		return feedback.Event{}, err
	}
	j := feedback.Incorrect
	if correct {
		j = feedback.Correct
	}
	var ev feedback.Event
	// A one-shot session conditions the settled tree; the database keeps
	// the history. Queries keep reading the old tree until the swap.
	err = db.mutate(func(cur *pxml.Tree) (Op, *pxml.Tree, func(), error) {
		s := feedback.NewSession(cur, db.cfg.Feedback)
		var err error
		if ev, err = s.ApplyAt(q, value, j, when); err != nil {
			return Op{}, nil, nil, err
		}
		op := Op{Kind: OpFeedback, Query: querySrc, Value: value, Correct: correct, When: ev.When}
		return op, s.Tree(), func() { db.events = append(db.events, ev) }, nil
	})
	if err != nil {
		return feedback.Event{}, err
	}
	return ev, nil
}

// FeedbackHistory returns the feedback events applied since the last
// integration. Like the other read accessors it never blocks behind an
// in-flight mutation.
func (db *Database) FeedbackHistory() []feedback.Event {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]feedback.Event(nil), db.events...)
}

// FeedbackCount returns the number of feedback events since the last
// integration without copying the history.
func (db *Database) FeedbackCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.events)
}

// Stats reports the size measures of the current document.
func (db *Database) Stats() pxml.Stats { return db.Tree().CollectStats() }

// WorldCount returns the number of possible worlds of the current
// document.
func (db *Database) WorldCount() *big.Int { return db.Tree().WorldCount() }

// IsCertain reports whether all uncertainty has been resolved.
func (db *Database) IsCertain() bool { return db.Tree().IsCertain() }

// Normalize canonicalizes the current document (merging duplicate
// possibilities), returning the size before and after.
func (db *Database) Normalize() (before, after int64, err error) {
	var nt *pxml.Tree
	err = db.mutate(func(cur *pxml.Tree) (Op, *pxml.Tree, func(), error) {
		before = cur.NodeCount()
		var err error
		if nt, err = cur.Normalize(); err != nil {
			return Op{}, nil, nil, err
		}
		return Op{Kind: OpNormalize}, nt, func() { db.events = nil }, nil
	})
	if err != nil {
		return before, before, err
	}
	return before, nt.NodeCount(), nil
}

// ReplaceTree swaps the entire document for a new one, discarding the
// feedback and integration histories. It backs the server's
// replace-mode integrate and snapshot loading.
func (db *Database) ReplaceTree(t *pxml.Tree) error {
	if t == nil {
		return errors.New("core: nil document")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("core: invalid document: %w", err)
	}
	return db.mutate(func(*pxml.Tree) (Op, *pxml.Tree, func(), error) {
		return Op{Kind: OpReplace, TreeValue: t}, t, func() { db.events, db.integrations = nil, nil }, nil
	})
}

// SaveSnapshot persists the current document, schema and session
// histories into dir via the store package, returning the written
// manifest. The snapshot records the journal position it reflects, so a
// catalog recovery replays only the log tail beyond it.
func (db *Database) SaveSnapshot(dir, comment string) (store.Manifest, error) {
	v := db.View()
	return store.SaveWith(dir, v.Tree, v.Schema, store.SaveOptions{
		Comment:      comment,
		LogSeq:       v.Seq,
		Integrations: v.Integrations,
		Feedback:     v.Events,
	})
}

// LoadSnapshot replaces the database content with a snapshot read from
// dir. A schema stored in the snapshot replaces the current schema; a
// snapshot without one keeps it. Histories persisted in the snapshot
// manifest are restored, so stats counters survive a save/load cycle.
func (db *Database) LoadSnapshot(dir string) (*store.Snapshot, error) {
	snap, err := store.Load(dir)
	if err != nil {
		return nil, err
	}
	if err := db.installSnapshot(snap.Tree, snap.Schema, snap.Manifest.Integrations, snap.Manifest.Feedback); err != nil {
		return nil, err
	}
	return snap, nil
}

// installSnapshot swaps in a snapshot's document, schema and histories as
// one journaled mutation (shared by LoadSnapshot and OpLoad replay).
func (db *Database) installSnapshot(t *pxml.Tree, schema *dtd.Schema, ints []integrate.Stats, evs []feedback.Event) error {
	op := Op{Kind: OpLoad, TreeValue: t, Integrations: ints, Events: evs}
	if schema != nil {
		op.Schema = schema.String()
	}
	return db.mutate(func(*pxml.Tree) (Op, *pxml.Tree, func(), error) {
		return op, t, func() {
			db.integrations = append([]integrate.Stats(nil), ints...)
			db.events = append([]feedback.Event(nil), evs...)
			if schema != nil {
				db.schema = schema
			}
		}, nil
	})
}

// ExportXML writes the current document as XML with probabilistic
// markers.
func (db *Database) ExportXML(w io.Writer, opts xmlcodec.EncodeOptions) error {
	return xmlcodec.Encode(w, db.Tree(), opts)
}

// ValidateAgainstSchema checks the current document against the
// configured schema (every possible world's cardinality bounds).
func (db *Database) ValidateAgainstSchema() error {
	db.mu.RLock()
	tree, schema := db.tree, db.schema
	db.mu.RUnlock()
	if schema == nil {
		return nil
	}
	return schema.ValidateTree(tree)
}
