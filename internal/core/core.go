// Package core ties the IMPrECISE subsystems together into the database
// module of the paper's §IV architecture: probabilistic XML storage at the
// bottom, data integration with "The Oracle" in the middle, and
// probabilistic querying plus user feedback on top.
//
// # Concurrency
//
// A Database is safe for concurrent use. It relies on the immutability of
// pxml nodes: every mutation (IntegrateTree, Feedback, Normalize,
// ReplaceTree, LoadSnapshot) builds a new tree and installs it with a
// copy-on-write pointer swap, so readers (Query, Stats, ExportXML, …)
// snapshot the current tree under a read lock and then work entirely on
// that immutable snapshot without holding any lock. Reads therefore never
// block behind a long-running integration; they simply observe the
// pre-mutation document until the swap lands. Mutations are serialized
// among themselves by a separate writer mutex, so two concurrent
// integrations cannot lose each other's result.
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
	"repro/internal/queryindex"
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
	// writeMu serializes tree mutations end to end, so each mutation
	// reads a settled tree, computes its successor outside mu, journals
	// it and swaps. Holding it across the journal append and the swap is
	// what makes journal sequence order equal in-memory apply order. Lock
	// order: writeMu → mu.
	writeMu sync.Mutex
	// mu guards the snapshot fields below. Readers hold it only long
	// enough to copy pointers; never during tree traversal.
	mu   sync.RWMutex
	tree *pxml.Tree
	// index is the immutable query index of tree. It is built outside mu
	// (by the mutation that produced the tree) and installed in the same
	// critical section as the tree swap, so a reader always sees a
	// matching (tree, index) pair and queries never rebuild it.
	index        *queryindex.Index
	schema       *dtd.Schema
	session      *feedback.Session
	integrations []integrate.Stats
	// events mirrors session.History() so readers can list feedback
	// without touching the session (which only writers may access).
	events []feedback.Event
	// indexBuilds / indexBuildLast / indexBuildTotal track index
	// construction work for /stats.
	indexBuilds     int64
	indexBuildLast  time.Duration
	indexBuildTotal time.Duration

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
	db := &Database{
		tree:    doc,
		schema:  cfg.Schema,
		oracle:  oracle.New(cfg.Rules, cfg.OracleOptions...),
		cfg:     cfg,
		queries: query.NewCache(cfg.QueryCacheSize),
		results: query.NewResultCache(cfg.ResultCacheSize),
	}
	db.index = db.buildIndex(doc)
	db.indexBuilds, db.indexBuildLast, db.indexBuildTotal =
		1, db.index.BuildDuration(), db.index.BuildDuration()
	db.session = feedback.NewSession(doc, cfg.Feedback)
	return db, nil
}

// buildIndex constructs the query index for a tree. It runs outside mu —
// it summarizes every node the tree does not share with its predecessor,
// which must never block readers — and the caller installs the result
// together with the tree.
func (db *Database) buildIndex(t *pxml.Tree) *queryindex.Index {
	return queryindex.Build(t)
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

// setTreeLocked swaps the document and its query index in and resets the
// feedback session. Callers must hold writeMu and mu, and must have built
// idx from t outside mu (via buildIndex); keeping the swap plus any
// related state updates in one mu critical section means readers never
// observe a new tree paired with stale sibling state (index, schema,
// histories).
func (db *Database) setTreeLocked(t *pxml.Tree, idx *queryindex.Index) {
	db.tree = t
	db.installIndexLocked(idx)
	db.session = feedback.NewSession(t, db.cfg.Feedback)
	db.events = nil
}

// installIndexLocked records the new index and its build-time statistics.
// The result cache is purged as well: entries are keyed by tree digest so
// stale hits were impossible anyway, but dead entries should not occupy
// capacity. Callers must hold mu.
func (db *Database) installIndexLocked(idx *queryindex.Index) {
	db.index = idx
	db.indexBuilds++
	db.indexBuildLast = idx.BuildDuration()
	db.indexBuildTotal += idx.BuildDuration()
	db.results.Purge()
}

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
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	// The whole fold runs on snapshots, outside mu: queries keep being
	// served from the pre-batch tree until the single swap below.
	cur, statsList, err := db.foldIntegrate(db.Tree(), sources)
	if err != nil {
		return nil, nil, err
	}
	if recorded != nil {
		statsList = append([]integrate.Stats(nil), recorded...)
	}
	idx := db.buildIndex(cur)
	seq, journaled, err := db.recordSources(sources, statsList)
	if err != nil {
		return nil, nil, err
	}
	db.mu.Lock()
	db.setTreeLocked(cur, idx)
	if journaled {
		db.appliedSeq = seq
	}
	db.integrations = append(db.integrations, statsList...)
	db.mu.Unlock()
	return statsList, cur, nil
}

// foldIntegrate folds sources left-to-right into base with the
// database's integration config. Callers hold writeMu (the fold bases on
// a settled tree).
func (db *Database) foldIntegrate(base *pxml.Tree, sources []*pxml.Tree) (*pxml.Tree, []integrate.Stats, error) {
	cfg := db.integrationConfig()
	cur := base
	statsList := make([]integrate.Stats, 0, len(sources))
	for i, src := range sources {
		res, stats, err := integrate.Integrate(cur, src, cfg)
		if err != nil {
			if len(sources) == 1 {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("core: batch source %d of %d: %w", i+1, len(sources), err)
		}
		cur = res
		statsList = append(statsList, *stats)
	}
	return cur, statsList, nil
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
// Evaluation is planned: the per-tree index (installed with the tree at
// every copy-on-write swap) picks the cheapest applicable strategy when
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

// evalCached evaluates a compiled query against a consistent
// (tree, index) snapshot, going through the result cache's singleflight:
// concurrent identical cold queries run one evaluation and share the
// result.
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
	db.mu.RLock()
	tree, idx := db.tree, db.index
	db.mu.RUnlock()
	digest := idx.Digest()
	src := q.String()
	res, outcome, err := db.results.Do(ctx, gen, digest, src, opts, func() (query.Result, error) {
		return query.EvalIndexedCtx(ctx, tree, q, opts, idx)
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

// Index returns the current document's query index (an immutable
// snapshot, consistent with the tree the same instant Tree() would have
// returned).
func (db *Database) Index() *queryindex.Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index
}

// IndexStats summarizes query-index construction work: how many indexes
// the database has built (one per installed tree) and how long the builds
// took.
type IndexStats struct {
	// Builds counts index constructions (one per tree swap, plus the
	// initial document).
	Builds int64
	// LastBuild and TotalBuild are wall-clock construction times.
	LastBuild  time.Duration
	TotalBuild time.Duration
	// Tags and Elements describe the current index: distinct element
	// tags, and element occurrences counted per path (an element shared
	// by k alternatives counts k times — see queryindex.TagInfo).
	Tags     int
	Elements int
}

// IndexStats reports index build statistics for /stats.
func (db *Database) IndexStats() IndexStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return IndexStats{
		Builds:     db.indexBuilds,
		LastBuild:  db.indexBuildLast,
		TotalBuild: db.indexBuildTotal,
		Tags:       db.index.NumTags(),
		Elements:   db.index.Elements(),
	}
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
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	// The session's conditioning builds a new tree; queries keep reading
	// the old one until the swap below.
	ev, err := db.session.ApplyAt(q, value, j, when)
	if err != nil {
		return ev, err
	}
	// Index the conditioned tree outside mu, then swap tree and index
	// together (unlike setTreeLocked this keeps the running session).
	nt := db.session.Tree()
	idx := db.buildIndex(nt)
	seq, journaled, err := db.record(Op{Kind: OpFeedback, Query: querySrc, Value: value, Correct: correct, When: ev.When})
	if err != nil {
		// The session already advanced; rebuild it over the still-current
		// tree so the aborted judgment leaves no trace.
		db.session = feedback.NewSession(db.Tree(), db.cfg.Feedback)
		return feedback.Event{}, err
	}
	db.mu.Lock()
	db.tree = nt
	db.installIndexLocked(idx)
	if journaled {
		db.appliedSeq = seq
	}
	db.events = append(db.events, ev)
	db.mu.Unlock()
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
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	t := db.Tree()
	before = t.NodeCount()
	nt, err := t.Normalize()
	if err != nil {
		return before, before, err
	}
	idx := db.buildIndex(nt)
	seq, journaled, err := db.record(Op{Kind: OpNormalize})
	if err != nil {
		return before, before, err
	}
	db.mu.Lock()
	db.setTreeLocked(nt, idx)
	if journaled {
		db.appliedSeq = seq
	}
	db.mu.Unlock()
	return before, nt.NodeCount(), nil
}

// ReplaceTree swaps the entire document for a new one, discarding the
// feedback session and integration history. It backs the server's
// replace-mode integrate and snapshot loading.
func (db *Database) ReplaceTree(t *pxml.Tree) error {
	if t == nil {
		return errors.New("core: nil document")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("core: invalid document: %w", err)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	idx := db.buildIndex(t)
	seq, journaled, err := db.recordWithTree(Op{Kind: OpReplace}, t)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.setTreeLocked(t, idx)
	if journaled {
		db.appliedSeq = seq
	}
	db.integrations = nil
	db.mu.Unlock()
	return nil
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
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	idx := db.buildIndex(t)
	op := Op{Kind: OpLoad, Integrations: ints, Events: evs}
	if schema != nil {
		op.Schema = schema.String()
	}
	seq, journaled, err := db.recordWithTree(op, t)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.setTreeLocked(t, idx)
	db.integrations = append([]integrate.Stats(nil), ints...)
	db.events = append([]feedback.Event(nil), evs...)
	if schema != nil {
		db.schema = schema
	}
	if journaled {
		db.appliedSeq = seq
	}
	db.mu.Unlock()
	return nil
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
