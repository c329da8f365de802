package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func cachedResult(vals ...string) Result {
	answers := make([]Answer, len(vals))
	for i, v := range vals {
		answers[i] = Answer{Value: v, P: 0.5}
	}
	return Result{Answers: answers, Method: MethodExact, Plan: &Plan{Method: MethodExact}}
}

var errNotCached = errors.New("not cached")

// get looks the triple up through Do with an evaluation that fails, so it
// counts a hit or a miss as a lookup does and never inserts.
func get(c *ResultCache, digest uint64, src string, opts Options) (Result, bool) {
	res, _, err := c.Do(context.Background(), digest, src, opts, func() (Result, error) {
		return Result{}, errNotCached
	})
	return res, err == nil
}

// put stores res under the triple without touching the counters.
func put(c *ResultCache, digest uint64, src string, opts Options, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(resultKey{digest: digest, src: src, opts: optionsKey(opts)}, res)
}

func TestResultCacheHitMiss(t *testing.T) {
	c := NewResultCache(4)
	if _, ok := get(c, 1, "//a", Options{}); ok {
		t.Fatal("hit on empty cache")
	}
	put(c, 1, "//a", Options{}, cachedResult("x"))
	res, ok := get(c, 1, "//a", Options{})
	if !ok || len(res.Answers) != 1 || res.Answers[0].Value != "x" {
		t.Fatalf("get = %v, %v", res, ok)
	}
	// Different digest, query text, or options are distinct entries.
	if _, ok := get(c, 2, "//a", Options{}); ok {
		t.Fatal("digest not part of the key")
	}
	if _, ok := get(c, 1, "//b", Options{}); ok {
		t.Fatal("query text not part of the key")
	}
	if _, ok := get(c, 1, "//a", Options{Method: MethodSample}); ok {
		t.Fatal("method not part of the key")
	}
	if _, ok := get(c, 1, "//a", Options{Seed: SeedPtr(7)}); ok {
		t.Fatal("seed not part of the key")
	}
	// Spelled-out defaults share the entry with the zero options.
	if _, ok := get(c, 1, "//a", Options{Samples: 20000, EnumWorldLimit: 100000}); !ok {
		t.Fatal("canonicalized defaults missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Size != 1 || st.Capacity != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResultCacheKeyHoldsOnlyReadOptions: an option the method does not
// read does not split its entry — the seed under exact, the local limit and
// seed under enumerate, the limits under sample — while one it reads does.
func TestResultCacheKeyHoldsOnlyReadOptions(t *testing.T) {
	c := NewResultCache(8)
	exact := Options{Method: MethodExact}
	if _, ok := get(c, 1, "//a", exact); ok {
		t.Fatal("hit on empty cache")
	}
	put(c, 1, "//a", exact, cachedResult("x"))
	withSeed := exact
	withSeed.Seed = SeedPtr(7)
	if _, ok := get(c, 1, "//a", withSeed); !ok {
		t.Fatal("method=exact with a seed missed the seedless entry")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	for _, same := range [][2]Options{
		{{Method: MethodEnumerate}, {Method: MethodEnumerate, LocalWorldLimit: 3, Samples: 9, Seed: SeedPtr(7)}},
		{{Method: MethodSample}, {Method: MethodSample, LocalWorldLimit: 3, EnumWorldLimit: 9}},
		{{}, {EnumWorldLimit: 9}},
	} {
		if optionsKey(same[0]) != optionsKey(same[1]) {
			t.Fatalf("%+v and %+v key apart: %q, %q", same[0], same[1], optionsKey(same[0]), optionsKey(same[1]))
		}
	}
	for _, apart := range [][2]Options{
		{{Method: MethodExact}, {Method: MethodExact, LocalWorldLimit: 3}},
		{{Method: MethodEnumerate}, {Method: MethodEnumerate, EnumWorldLimit: 9}},
		{{Method: MethodSample}, {Method: MethodSample, Seed: SeedPtr(7)}},
		{{}, {LocalWorldLimit: 3}},
		{{}, {Samples: 9}},
	} {
		if optionsKey(apart[0]) == optionsKey(apart[1]) {
			t.Fatalf("%+v and %+v share key %q", apart[0], apart[1], optionsKey(apart[0]))
		}
	}
}

func TestResultCacheEvictionLRU(t *testing.T) {
	c := NewResultCache(2)
	put(c, 1, "a", Options{}, cachedResult("a"))
	put(c, 1, "b", Options{}, cachedResult("b"))
	get(c, 1, "a", Options{}) // refresh a
	put(c, 1, "c", Options{}, cachedResult("c"))
	if _, ok := get(c, 1, "b", Options{}); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := get(c, 1, "a", Options{}); !ok {
		t.Fatal("recently used entry evicted")
	}
	if st := c.Stats(); st.Size != 2 {
		t.Fatalf("size = %d, want 2", st.Size)
	}
}

// TestResultCacheHoldsItsCapacity: a cache of capacity N keeps N distinct
// entries, and the next put evicts the least recently used entry of the
// whole cache, not of some slice of it.
func TestResultCacheHoldsItsCapacity(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		c := NewResultCache(n)
		key := func(i int) (uint64, string) { return uint64(i % 3), fmt.Sprintf("//q%d", i) }
		for i := 0; i < n; i++ {
			d, src := key(i)
			put(c, d, src, Options{}, cachedResult(src))
		}
		hits := 0
		for i := 0; i < n; i++ { // in put order, so key 0 stays least recent
			if d, src := key(i); hasEntry(c, d, src) {
				hits++
			}
		}
		if hits != n {
			t.Fatalf("capacity %d: %d of %d distinct keys still hit", n, hits, n)
		}
		d, src := key(n)
		put(c, d, src, Options{}, cachedResult(src))
		if d, src := key(0); hasEntry(c, d, src) {
			t.Fatalf("capacity %d: the least recently used key survived put %d", n, n+1)
		}
		for i := 1; i <= n; i++ {
			if d, src := key(i); !hasEntry(c, d, src) {
				t.Fatalf("capacity %d: key %d evicted in place of the least recently used key", n, i)
			}
		}
		if st := c.Stats(); st.Size != n {
			t.Fatalf("capacity %d: size %d", n, st.Size)
		}
	}
}

func hasEntry(c *ResultCache, digest uint64, src string) bool {
	_, ok := get(c, digest, src, Options{})
	return ok
}

func TestResultCachePurge(t *testing.T) {
	c := NewResultCache(0)
	if c.Stats().Capacity != DefaultResultCacheCapacity {
		t.Fatalf("default capacity = %d", c.Stats().Capacity)
	}
	put(c, 1, "a", Options{}, cachedResult("a"))
	c.Purge()
	if _, ok := get(c, 1, "a", Options{}); ok {
		t.Fatal("entry survived purge")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("size after purge = %d", st.Size)
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := NewResultCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := string(rune('a' + (g+i)%16))
				if _, ok := get(c, uint64(i%3), key, Options{}); !ok {
					put(c, uint64(i%3), key, Options{}, cachedResult(key))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestResultPLookup(t *testing.T) {
	r := cachedResult("a", "b", "c")
	if r.P("b") != 0.5 || r.P("zz") != 0 {
		t.Fatalf("P lookup wrong: %g %g", r.P("b"), r.P("zz"))
	}
	// Copies agree with the original.
	cp := r
	if cp.P("c") != 0.5 {
		t.Fatal("copied result P lookup broken")
	}
	// So do results built outside the engine.
	lit := Result{Answers: []Answer{{Value: "x", P: 0.25}}}
	if lit.P("x") != 0.25 || lit.P("y") != 0 {
		t.Fatal("literal result P broken")
	}
}

// TestCacheDoesNotCacheErrors: a failed evaluation — here the parse that
// the leader of a miss runs first — stores nothing, so the next identical
// call evaluates again and counts a second miss.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewResultCache(4)
	var calls int
	compile := func() (Result, error) {
		calls++
		_, err := Compile("//a[")
		return Result{}, err
	}
	for i := 0; i < 2; i++ {
		if _, outcome, err := c.Do(context.Background(), 1, "//a[", Options{}, compile); err == nil || outcome != DoExecuted {
			t.Fatalf("call %d: outcome %v, err %v; want DoExecuted with the parse error", i, outcome, err)
		}
	}
	if st := c.Stats(); calls != 2 || st.Size != 0 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("%d evaluations, stats %+v; want 2 evaluations, 2 misses and no entry", calls, st)
	}
}
