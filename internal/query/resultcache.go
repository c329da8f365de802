package query

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultResultCacheCapacity is the capacity of a ResultCache built with
// NewResultCache(0).
const DefaultResultCacheCapacity = 512

// ResultCacheStats reports the effectiveness of a ResultCache.
type ResultCacheStats struct {
	// Hits and Misses count lookups answered from the cache vs. lookups
	// that led to an evaluation. Under Do, concurrent identical cold
	// queries record exactly one miss (the leader's); the others record
	// Collapses instead.
	Hits, Misses int64
	// Collapses counts Do callers that waited on an identical in-flight
	// evaluation instead of running their own (singleflight).
	Collapses int64
	// Size is the number of cached results; Capacity the maximum before
	// least-recently-used eviction.
	Size, Capacity int
}

// resultKey identifies one cached evaluation: the document content (by
// structural digest), the query text, and the canonicalized options. A
// mutation swaps in a tree with a different digest, so stale results can
// never be served — invalidation is by tree identity, not by time.
type resultKey struct {
	digest uint64
	src    string
	opts   optsKey
}

// optsKey is the canonical form of the options an evaluation reads; see
// optionsKey.
type optsKey struct {
	method               Method
	local, enum, samples int
	seed                 int64
}

// optionsKey canonicalizes options into the cache key: defaults are
// resolved first, so Options{} and an explicitly spelled-out default hit
// the same entry, and only the options the method reads are kept — the
// local limit for auto and exact, the enumeration limit for enumerate, the
// sample count and seed for auto and sample. Workers (ignored) and the
// budget fields are deliberately excluded: budgets only decide whether an
// evaluation completes — so queries differing only in those share one
// entry (and one singleflight execution).
func optionsKey(o Options) optsKey {
	local := o.LocalWorldLimit
	if local <= 0 {
		local = DefaultLocalWorldLimit
	}
	switch m := o.method(); m {
	case MethodExact:
		return optsKey{method: m, local: local}
	case MethodEnumerate:
		return optsKey{method: m, enum: o.enumLimit()}
	case MethodSample:
		return optsKey{method: m, samples: o.samples(), seed: o.seed()}
	default:
		return optsKey{method: m, local: local, samples: o.samples(), seed: o.seed()}
	}
}

// ResultCache is a fixed-capacity, concurrency-safe LRU cache of fully
// evaluated query results, keyed by (tree digest, query text, options).
// Evaluation is deterministic — sampling is seeded — so a cached Result
// may be returned verbatim; its Answers must be treated as read-only.
// It complements the compiled-query Cache: that one skips parsing, this
// one skips evaluation entirely for repeated queries over an unchanged
// document.
//
// One mutex guards the LRU and the purge generation; Do adds
// singleflight: N concurrent identical cold queries run one evaluation
// while N−1 wait for its result.
type ResultCache struct {
	// mu guards entries and gen. A conditional put checks gen and inserts
	// under one hold, so a purge can never interleave between the check
	// and the insert.
	mu      sync.Mutex
	entries lru[resultKey, Result]
	gen     uint64

	// flightMu guards the in-flight evaluation table behind Do, which
	// takes mu under it (never the reverse).
	flightMu sync.Mutex
	flights  map[resultKey]*flightCall

	hits, misses, collapses atomic.Int64
}

// flightCall is one in-flight evaluation: waiters block on done and then
// read res/err, which the leader writes before closing the channel.
type flightCall struct {
	done chan struct{}
	res  Result
	err  error
}

// NewResultCache builds a result cache holding at most capacity entries;
// capacity <= 0 means DefaultResultCacheCapacity.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultResultCacheCapacity
	}
	return &ResultCache{
		entries: newLRU[resultKey, Result](capacity),
		flights: make(map[resultKey]*flightCall),
	}
}

// lookup returns the cached result for key, refreshing its LRU position.
func (c *ResultCache) lookup(key resultKey) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.get(key)
}

// Get returns the cached result for the (document, query, options)
// triple, if present.
func (c *ResultCache) Get(digest uint64, src string, opts Options) (Result, bool) {
	key := resultKey{digest: digest, src: src, opts: optionsKey(opts)}
	res, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// Put stores an evaluation result. Storing the same key twice keeps the
// newer value (the two are identical by determinism anyway).
func (c *ResultCache) Put(digest uint64, src string, opts Options, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(resultKey{digest: digest, src: src, opts: optionsKey(opts)}, res)
}

// Generation returns the purge generation. A caller that snapshots the
// generation before reading the document it evaluates against can hand
// the value to PutIfGeneration to avoid re-inserting an entry for a
// document that has since been retired by a purge.
func (c *ResultCache) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// PutIfGeneration stores the result only if no Purge intervened since the
// caller observed gen — the check and the insertion are atomic under the
// cache lock, so a slow evaluation that straddles a tree swap can
// never occupy capacity with an entry for the retired document.
func (c *ResultCache) PutIfGeneration(gen uint64, digest uint64, src string, opts Options, res Result) bool {
	return c.putIfGeneration(gen, resultKey{digest: digest, src: src, opts: optionsKey(opts)}, res)
}

func (c *ResultCache) putIfGeneration(gen uint64, key resultKey, res Result) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return false
	}
	c.entries.put(key, res)
	return true
}

// Purge empties the cache, keeping the hit/miss counters. The database
// calls it on every tree swap: digests already make stale hits
// impossible, purging just stops dead entries from occupying capacity.
func (c *ResultCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.entries.purge()
}

// Do returns the cached result for the triple or computes it by calling
// fn — at most once across concurrent identical callers (singleflight):
// the first cold caller leads the evaluation, later identical callers
// wait for its result instead of burning their own. gen gates the insert
// exactly like PutIfGeneration.
//
// A waiter whose own ctx is canceled stops waiting with ctx.Err(). A
// leader error that is caller-specific — cancellation or budget
// exhaustion — is not adopted by waiters; one of them retries as the new
// leader, so one impatient client cannot fail everyone else's query.
// Deterministic errors (bad query, inapplicable method) are shared.
//
// The second result reports how the call was served: from cache, by
// executing fn, or by collapsing onto another caller's execution.
func (c *ResultCache) Do(ctx context.Context, gen uint64, digest uint64, src string, opts Options, fn func() (Result, error)) (Result, DoOutcome, error) {
	key := resultKey{digest: digest, src: src, opts: optionsKey(opts)}
	for {
		if res, ok := c.lookup(key); ok {
			c.hits.Add(1)
			return res, DoHit, nil
		}
		c.flightMu.Lock()
		if call, ok := c.flights[key]; ok {
			c.flightMu.Unlock()
			c.collapses.Add(1)
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
			select {
			case <-call.done:
			case <-done:
				return Result{}, DoShared, ctx.Err()
			}
			if call.err == nil {
				return call.res, DoShared, nil
			}
			if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) ||
				errors.Is(call.err, ErrBudgetExhausted) {
				continue
			}
			return Result{}, DoShared, call.err
		}
		// A leader may have inserted its result and retired its flight
		// between the miss above and taking flightMu: look again before
		// leading a second evaluation (lock order flightMu → mu).
		if res, ok := c.lookup(key); ok {
			c.flightMu.Unlock()
			c.hits.Add(1)
			return res, DoHit, nil
		}
		call := &flightCall{done: make(chan struct{})}
		c.flights[key] = call
		c.flightMu.Unlock()
		c.misses.Add(1)

		completed := false
		func() {
			defer func() {
				if !completed && call.err == nil {
					// fn panicked; the panic propagates to this caller,
					// while waiters get an error (not cancel-like, so
					// they do not retry into the same panic).
					call.err = errors.New("query: evaluation panicked")
				}
				c.flightMu.Lock()
				delete(c.flights, key)
				c.flightMu.Unlock()
				close(call.done)
			}()
			call.res, call.err = fn()
			if call.err == nil {
				// Insert before releasing waiters and retiring the
				// flight, so no identical caller can slip between the
				// flight's end and the entry's visibility.
				c.putIfGeneration(gen, key, call.res)
			}
			completed = true
		}()
		return call.res, DoExecuted, call.err
	}
}

// DoOutcome reports how ResultCache.Do served a call.
type DoOutcome int

const (
	// DoHit: served from the cache.
	DoHit DoOutcome = iota
	// DoExecuted: this caller ran the evaluation.
	DoExecuted
	// DoShared: this caller waited on an identical in-flight evaluation.
	DoShared
)

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	size := c.entries.len()
	c.mu.Unlock()
	return ResultCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapses: c.collapses.Load(),
		Size:      size,
		Capacity:  c.entries.cap,
	}
}
