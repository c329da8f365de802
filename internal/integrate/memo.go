// Cross-call memoization. An integration's own tables die with it; under
// sustained ingest that means N integrations of overlapping sources ask the
// Oracle the same questions and merge the same pairs N times. A Memo keeps
// both tables for the database's lifetime, keyed by the structural digests
// of the two elements instead of their pointers (node identity is per-
// construction-pass; digests are stable across calls and across the hash-
// consing builders). Verdicts have this one table (a call without a Memo
// has one of its own); pair merges keep a per-call pointer-keyed table in
// front, so that one call builds each pointer pair's subtree exactly once.
//
// Soundness: a verdict/merge is a pure function of the two subtrees given
// a fixed oracle, schema and trust weight, all of which are per-database
// constants between invalidation points. The owning database purges the
// memo whenever that assumption could break (feedback, normalize,
// replace, snapshot load — the last may swap the schema). Keying by
// 64-bit digest accepts the same astronomically small collision odds the
// query result cache already does (a collision needs two distinct
// subtrees with equal FNV-based digests inside one memo lifetime).
//
// Concurrency: pair merges are compute-once, so two workers — even from
// the same integration — racing on one digest pair block on a single
// computation and share its result (and its nodes). Verdicts are
// first-put-wins: racing workers may each ask the Oracle, which is pure, and
// the one whose answer settles the key accounts for it; every other look-up
// is a hit. Either way per-call Stats are deterministic for every worker
// count: for any fixed memo state at call start, the look-ups the call makes
// and the set of digest pairs it settles are fixed, whichever goroutine
// happens to settle each.
package integrate

import "sync/atomic"

// DefaultMemoEntries bounds a Memo's total entry count (verdicts plus
// merges) when NewMemo is given no explicit cap.
const DefaultMemoEntries = 1 << 18

// Memo is a cross-call verdict and merge cache shared by every
// integration of one database. The zero value is not useful; use NewMemo.
type Memo struct {
	verdicts *verdictTable
	merges   *memoTable[digestPair, mergeResult]
	max      int

	hits   atomic.Int64
	misses atomic.Int64
	purges atomic.Int64
}

// digestPair keys the shared tables: the structural digests of the A and
// B elements of a pair. Order matters (integration is not symmetric in
// its sources — trust weights, value-conflict ordering).
type digestPair struct{ a, b uint64 }

// NewMemo creates an empty memo holding at most maxEntries entries across
// both tables (<= 0 means DefaultMemoEntries). The cap is enforced
// between integrations: a call that overflows it completes with its full
// working set and the table is dropped before the next call starts.
func NewMemo(maxEntries int) *Memo {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoEntries
	}
	return &Memo{
		verdicts: newVerdictTable(),
		merges:   newMemoTable[digestPair, mergeResult](),
		max:      maxEntries,
	}
}

// Purge drops every cached entry. The owning database calls it on any
// mutation that could invalidate cached decisions (feedback, normalize,
// replace, snapshot load). It must not run concurrently with an
// integration using the memo; the database's writer lock guarantees that.
func (m *Memo) Purge() {
	if m == nil {
		return
	}
	m.verdicts.purge()
	m.merges.purge()
	m.purges.Add(1)
}

// enforceCap drops the tables when they exceed the configured bound. It
// runs at integration start (under the writer lock), so a single call's
// working set is never evicted mid-flight.
func (m *Memo) enforceCap() {
	if m != nil && m.verdicts.size()+m.merges.size() > m.max {
		m.Purge()
	}
}

// count records one look-up: a hit, or a miss this integration then filled.
func (m *Memo) count(hit bool) {
	switch {
	case m == nil:
	case hit:
		m.hits.Add(1)
	default:
		m.misses.Add(1)
	}
}

// MemoStats is an observability snapshot of a Memo.
type MemoStats struct {
	// Entries is the current entry count across both tables.
	Entries int `json:"entries"`
	// Capacity is the configured entry cap.
	Capacity int `json:"capacity"`
	// Hits and Misses count lookups served from (vs inserted into) the
	// memo over its lifetime, across all integrations (a verdict look-up
	// one integration repeats is a hit too).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Purges counts whole-table drops (invalidations plus cap overflows).
	Purges int64 `json:"purges"`
	// HitRate is Hits/(Hits+Misses), 0 when no lookups happened.
	HitRate float64 `json:"hit_rate"`
}

// Stats reports the memo's counters.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	s := MemoStats{
		Entries:  m.verdicts.size() + m.merges.size(),
		Capacity: m.max,
		Hits:     m.hits.Load(),
		Misses:   m.misses.Load(),
		Purges:   m.purges.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
