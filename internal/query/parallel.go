package query

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the concurrency plumbing of parallel query evaluation.
// The fan-out units are chosen so that workers never share mutable state:
// exact evaluation parallelizes (a) anchor-subtree local enumerations,
// which are pure functions of (element, state set), and (b) the per-value
// failure computations, which read shared memo tables built beforehand and
// write only per-value scratch memos; sampling parallelizes fixed-size
// sample chunks with chunk-derived RNGs. Everything that orders or merges
// results stays sequential, so answers are bit-identical for any worker
// count — the same recipe the parallel integration engine (PR 2) proved on
// the write path.

// ExecStats reports how one evaluation actually ran: the resolved worker
// count, how the fan-out units were scheduled, and how much work the
// budget metered. Attached to every Result produced by EvalIndexed.
type ExecStats struct {
	// Workers is the resolved fan-out width (Options.Workers, with 0
	// resolved to GOMAXPROCS).
	Workers int
	// PooledTasks / InlineTasks count fan-out units that ran on a pool
	// goroutine vs. inline on the submitter because every worker slot was
	// busy — a high inline share means the pool was saturated.
	PooledTasks, InlineTasks int64
	// NodeVisits is the budget meter reading: node visits plus enumerated
	// worlds plus drawn samples.
	NodeVisits int64
	// AnchorsEnumerated counts the anchor subtrees whose local worlds the
	// exact executor enumerated; AnchorsSkipped those it reached but did
	// not enumerate, because no element in them can carry a literal the
	// predicates require. Anchors inside a subtree the summaries pruned
	// whole are never reached and count in neither.
	AnchorsEnumerated, AnchorsSkipped int64
}

// workers resolves Options.Workers: 0 means one worker per CPU.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// taskPool fans independent tasks out over a bounded number of goroutines.
// The semaphore capacity is workers−1 because the submitting goroutine is
// itself a worker; when every slot is busy the submitter runs the task
// inline, so progress never waits on a free slot. A nil pool runs
// everything inline in submission order (sequential mode).
type taskPool struct {
	sem    chan struct{}
	pooled atomic.Int64
	inline atomic.Int64
}

func newTaskPool(workers int) *taskPool {
	if workers <= 1 {
		return nil
	}
	return &taskPool{sem: make(chan struct{}, workers-1)}
}

// runAll executes every task and returns once all have completed. Tasks
// communicate through captured result slots, not return values. A panic in
// a spawned worker is re-raised on the submitting goroutine after the
// wait, so callers observe it exactly as a sequential panic.
func (p *taskPool) runAll(tasks []func()) {
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
			p.pooled.Add(1)
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
			p.inline.Add(1)
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

// counts reports how many tasks ran pooled vs. inline-on-saturation.
func (p *taskPool) counts() (pooled, inline int64) {
	if p == nil {
		return 0, 0
	}
	return p.pooled.Load(), p.inline.Load()
}

// workerPanic wraps a recovered worker panic value so it can live in an
// atomic.Value regardless of its dynamic type.
type workerPanic struct{ val any }

// mixSeed derives the RNG seed of sample chunk i from the user seed with a
// splitmix64 finalizer. Chunk streams are statistically independent yet a
// pure function of (seed, chunk), which is what keeps `seed=` reproducible
// across worker counts: the chunk layout is fixed by the sample count, and
// workers only decide who runs which chunk.
func mixSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
