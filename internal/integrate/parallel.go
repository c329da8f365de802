package integrate

import (
	"sync"
	"sync/atomic"

	"repro/internal/oracle"
)

// This file holds the concurrency plumbing of the parallel integration
// engine. The paper's compactness argument (§III) — independent candidate
// components multiply world counts but only add node counts — also means
// component matchings can be enumerated and merged with no coordination:
// the only shared state is memoization (a compute-once table for pair
// merges, a first-put-wins table for verdicts) and counters (atomics).
// Everything that orders the output (component order, matching
// enumeration, cartesian expansion) stays sequential, so the result tree
// and the Stats are identical for any worker count.

// memoTable is a concurrency-safe, compute-once memoization table. Each
// key's compute function runs exactly once even under contention; losers
// of the insert race block until the winner's result is ready and then
// share it. Under sequential integration it degenerates to a plain map
// lookup with negligible overhead.
type memoTable[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
}

func newMemoTable[K comparable, V any]() *memoTable[K, V] {
	return &memoTable[K, V]{m: make(map[K]*memoCell[V])}
}

// do returns the memoized value for k, computing it (exactly once across
// all goroutines) when absent. compute must not recurse onto the same key;
// the integration recursion descends strictly into subtrees, so it cannot.
// The second result reports whether THIS call ran the compute function —
// exactly one do call per key ever gets true, which is what lets per-call
// statistics attribute the work of a shared (cross-call) entry to the one
// integration that performed it.
func (t *memoTable[K, V]) do(k K, compute func() V) (V, bool) {
	t.mu.Lock()
	c, ok := t.m[k]
	if !ok {
		c = &memoCell[V]{}
		t.m[k] = c
	}
	t.mu.Unlock()
	computed := false
	c.once.Do(func() { c.v = compute(); computed = true })
	return c.v, computed
}

// size reports the number of cells (including in-flight computations).
func (t *memoTable[K, V]) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// purge drops every cell. It must not race with do calls that are still
// computing; callers purge only between integrations (under the
// database's writer lock).
func (t *memoTable[K, V]) purge() {
	t.mu.Lock()
	t.m = make(map[K]*memoCell[V])
	t.mu.Unlock()
}

// verdict is what integration keeps of an oracle.Verdict: 16 bytes, no
// pointer.
type verdict struct {
	decision oracle.Decision
	p        float64
}

// verdictTable memoizes Oracle verdicts by the digests of the two elements,
// inside a Memo for the database's lifetime, otherwise for one call. A
// verdict is a small pure value and one is looked up for every candidate
// pair, so — unlike a pair merge, which builds nodes whose identity the
// result shares — it gets no compute-once cell: racing workers may each ask
// the Oracle, the first to put its answer settles the key, and every later
// get or put returns that answer. Key and value hold no pointer, so the
// collector never scans the buckets.
type verdictTable struct {
	mu sync.Mutex
	m  map[digestPair]verdict
}

func newVerdictTable() *verdictTable {
	return &verdictTable{m: make(map[digestPair]verdict)}
}

func (t *verdictTable) get(k digestPair) (verdict, bool) {
	t.mu.Lock()
	v, ok := t.m[k]
	t.mu.Unlock()
	return v, ok
}

// put settles k to v unless it is settled already. It returns the settled
// verdict and whether it found one — false for exactly one put per key,
// which is what per-call statistics attribute the work by.
func (t *verdictTable) put(k digestPair, v verdict) (verdict, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.m[k]; ok {
		return old, true
	}
	t.m[k] = v
	return v, false
}

func (t *verdictTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// purge drops every verdict; like memoTable.purge it runs only between
// integrations.
func (t *verdictTable) purge() {
	t.mu.Lock()
	t.m = make(map[digestPair]verdict)
	t.mu.Unlock()
}

// pool fans tasks out over a bounded number of workers. The capacity is
// Workers−1 because the goroutine submitting work is itself a worker, so
// Config.Workers = N yields at most N goroutines integrating at once. A
// nil pool runs everything inline (sequential mode).
type pool struct {
	sem chan struct{}
}

func newPool(workers int) *pool {
	if workers <= 1 {
		return nil
	}
	return &pool{sem: make(chan struct{}, workers-1)}
}

// runAll executes every task, spawning a goroutine per task while worker
// slots are free and running the task inline in the submitter otherwise.
// The inline fallback guarantees progress even when every slot is held by
// a blocked worker, so recursive fan-out (components spawning pair merges
// spawning deeper components) cannot deadlock. runAll returns once all
// tasks have completed; tasks must communicate through their captured
// result slots, not through return values. A panic in a spawned worker is
// re-raised on the submitting goroutine after the wait, so callers (e.g.
// the HTTP server's recovery middleware) observe it exactly as they would
// a sequential panic instead of the process crashing.
func (p *pool) runAll(tasks []func()) {
	if p == nil || len(tasks) <= 1 {
		for _, task := range tasks {
			task()
		}
		return
	}
	var wg sync.WaitGroup
	var panicVal atomic.Value
	for _, task := range tasks[:len(tasks)-1] {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(task func()) {
				defer wg.Done()
				defer func() { <-p.sem }()
				defer func() {
					if r := recover(); r != nil {
						panicVal.CompareAndSwap(nil, workerPanic{r})
					}
				}()
				task()
			}(task)
		default:
			task()
		}
	}
	// The submitter works too: the last task always runs inline.
	tasks[len(tasks)-1]()
	wg.Wait()
	if r := panicVal.Load(); r != nil {
		panic(r.(workerPanic).val)
	}
}

// workerPanic wraps a recovered worker panic value so it can live in an
// atomic.Value regardless of its dynamic type.
type workerPanic struct{ val any }

// atomicStats mirrors Stats with atomic counters so concurrent workers
// account without locking. Every increment happens inside a compute-once
// memo computation, on a verdict look-up (whose number, and how many of them
// settle a key, the inputs fix), or in a deterministic sequential section,
// so the totals are identical for any worker count.
type atomicStats struct {
	oracleCalls    atomic.Int64
	mustPairs      atomic.Int64
	cannotPairs    atomic.Int64
	undecidedPairs atomic.Int64

	components          atomic.Int64
	largestComponent    atomic.Int64
	matchingsEnumerated atomic.Int64
	matchingsPruned     atomic.Int64
	possibilitiesBuilt  atomic.Int64
	incompatibleMerges  atomic.Int64
	truncatedComponents atomic.Int64
	valueConflicts      atomic.Int64

	verdictMemoHits atomic.Int64
	mergeMemoHits   atomic.Int64
	splicedChildren atomic.Int64
}

func (a *atomicStats) snapshot() Stats {
	return Stats{
		OracleCalls:         int(a.oracleCalls.Load()),
		MustPairs:           int(a.mustPairs.Load()),
		CannotPairs:         int(a.cannotPairs.Load()),
		UndecidedPairs:      int(a.undecidedPairs.Load()),
		Components:          int(a.components.Load()),
		LargestComponent:    int(a.largestComponent.Load()),
		MatchingsEnumerated: int(a.matchingsEnumerated.Load()),
		MatchingsPruned:     int(a.matchingsPruned.Load()),
		PossibilitiesBuilt:  int(a.possibilitiesBuilt.Load()),
		IncompatibleMerges:  int(a.incompatibleMerges.Load()),
		TruncatedComponents: int(a.truncatedComponents.Load()),
		ValueConflicts:      int(a.valueConflicts.Load()),
		VerdictMemoHits:     int(a.verdictMemoHits.Load()),
		MergeMemoHits:       int(a.mergeMemoHits.Load()),
		SplicedChildren:     int(a.splicedChildren.Load()),
	}
}

// noteLargest raises the largest-component watermark to edges if greater.
func (a *atomicStats) noteLargest(edges int) {
	n := int64(edges)
	for {
		cur := a.largestComponent.Load()
		if n <= cur || a.largestComponent.CompareAndSwap(cur, n) {
			return
		}
	}
}
