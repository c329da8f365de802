// Op journaling: every mutation of a Database emits a replayable record to
// an attached Journal (the catalog's per-database write-ahead log). The
// one commit, mutate, emits it under the writer mutex, after the
// mutation's result is computed but before the copy-on-write swap makes it
// visible — so an op is durable before any reader can observe it, and a
// crash between the two is repaired by replay.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dtd"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/pxml"
)

// OpKind identifies a journaled mutation.
type OpKind string

const (
	// OpIntegrate merges one source document (SourceTrees[0]).
	OpIntegrate OpKind = "integrate"
	// OpBatch merges N source documents atomically (SourceTrees).
	OpBatch OpKind = "batch"
	// OpFeedback applies one judgment (Query, Value, Correct, When).
	OpFeedback OpKind = "feedback"
	// OpNormalize canonicalizes the document.
	OpNormalize OpKind = "normalize"
	// OpReplace swaps the whole document for TreeValue.
	OpReplace OpKind = "replace"
	// OpLoad installs a snapshot: TreeValue, optional Schema, and the
	// histories the snapshot carried.
	OpLoad OpKind = "load"
)

// Op is one replayable mutation record. Command-style ops (integrate,
// batch, feedback, normalize) carry their inputs and rely on the engine's
// determinism; state-style ops (replace, load) carry the installed
// document itself, so replay never depends on an external file. Trees
// travel decoded: the mutation paths fill them directly, and the binary
// journal and wire decoders hand back validated trees.
type Op struct {
	Kind OpKind
	// SourceTrees are the integrated source document(s).
	SourceTrees []*pxml.Tree
	// Query, Value, Correct and When describe a feedback judgment; When
	// is recorded so replay reproduces the event timestamp exactly.
	Query   string
	Value   string
	Correct bool
	When    time.Time
	// TreeValue and Schema are the installed document (replace/load).
	TreeValue *pxml.Tree
	Schema    string
	// Integrations and Events restore the histories a loaded snapshot
	// carried.
	Integrations []integrate.Stats
	Events       []feedback.Event
	// Stats records the per-source integration statistics of an
	// integrate/batch op as they were at commit time.
	// Replay installs these instead of its own recomputed counters: the
	// tree recomputation is deterministic, and the history must be the
	// original one exactly, even for a log whose engine counted
	// differently (older versions had a cross-call memo).
	Stats []integrate.Stats
}

// Journal receives one record per committed mutation and assigns it a
// strictly increasing sequence number. Record must make the op durable
// before returning: the database treats a successful Record as permission
// to expose the mutation to readers.
type Journal interface {
	Record(op Op) (seq uint64, err error)
}

// EpochJournal is optionally implemented by journals that stamp records
// with a cluster epoch — the fencing term replication uses to reject
// writes from a deposed primary. The catalog's write-ahead log is one.
type EpochJournal interface {
	Journal
	Epoch() uint64
}

// JournalEpoch reports the cluster epoch the attached journal commits
// under, or 0 when no journal is attached or the journal does not track
// epochs (a plain in-memory database).
func (db *Database) JournalEpoch() uint64 {
	db.mu.RLock()
	j := db.journal
	db.mu.RUnlock()
	if ej, ok := j.(EpochJournal); ok {
		return ej.Epoch()
	}
	return 0
}

// SetJournal attaches a journal and seeds the applied-sequence watermark
// (the sequence of the last mutation already reflected in the current
// tree — after recovery, the last replayed record). Passing nil detaches.
// It must not race with in-flight mutations; callers attach before serving
// traffic.
func (db *Database) SetJournal(j Journal, seq uint64) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.Lock()
	db.journal = j
	db.appliedSeq = seq
	db.mu.Unlock()
}

// ApplyOp re-executes one journaled mutation — the replay half of crash
// recovery. It dispatches to the same mutating paths that produced the
// record, so replaying a log prefix reproduces the exact tree and
// histories (integration and feedback engines are deterministic). Callers
// replay with no journal attached, then attach it at the recovered
// sequence.
func (db *Database) ApplyOp(op Op) error {
	switch op.Kind {
	case OpIntegrate, OpBatch:
		trees := op.SourceTrees
		if len(trees) == 0 {
			return errors.New("core: replay: op has no sources")
		}
		// Recorded stats (when the log carries them) are installed in
		// place of the recomputed counters; see integrateSources.
		recorded := op.Stats
		if len(recorded) != len(trees) {
			recorded = nil
		}
		_, _, err := db.integrateSources(trees, recorded)
		return err
	case OpFeedback:
		_, err := db.feedbackAt(op.Query, op.Value, op.Correct, op.When)
		return err
	case OpNormalize:
		_, _, err := db.Normalize()
		return err
	case OpReplace:
		if op.TreeValue == nil {
			return errors.New("core: replay replace: op has no document")
		}
		return db.ReplaceTree(op.TreeValue)
	case OpLoad:
		if op.TreeValue == nil {
			return errors.New("core: replay load: op has no document")
		}
		var schema *dtd.Schema
		if op.Schema != "" {
			var err error
			schema, err = dtd.ParseString(op.Schema)
			if err != nil {
				return fmt.Errorf("core: replay load schema: %w", err)
			}
		}
		return db.installSnapshot(op.TreeValue, schema, op.Integrations, op.Events)
	default:
		return fmt.Errorf("core: replay: unknown op kind %q", op.Kind)
	}
}

// SnapshotView is a consistent cut of everything a durable snapshot must
// capture: the document, its schema, the session histories, and the
// journal sequence of the last mutation the tree reflects.
type SnapshotView struct {
	Tree         *pxml.Tree
	Schema       *dtd.Schema
	Integrations []integrate.Stats
	Events       []feedback.Event
	// Seq is the journal sequence the tree corresponds to; a recovery
	// from this snapshot replays only records with a higher sequence.
	Seq uint64
}

// View returns a consistent SnapshotView. Because the applied sequence is
// advanced inside the same critical section as the tree swap, the tree
// and sequence can never disagree — the compactor relies on that.
func (db *Database) View() SnapshotView {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return SnapshotView{
		Tree:         db.tree,
		Schema:       db.schema,
		Integrations: append([]integrate.Stats(nil), db.integrations...),
		Events:       append([]feedback.Event(nil), db.events...),
		Seq:          db.appliedSeq,
	}
}

// AppliedSeq returns the journal sequence of the last mutation the
// current tree reflects — an O(1) read for health and replication
// reporting (View copies the histories too; this does not).
func (db *Database) AppliedSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.appliedSeq
}

// TreeSeq returns the current tree and the journal sequence it reflects
// as one consistent pair, without the history copies View makes. The
// log-shipping hot path reads this once per commit per connected
// follower; separate Tree() and AppliedSeq() calls could straddle a
// swap and pair a tree with the wrong sequence.
func (db *Database) TreeSeq() (*pxml.Tree, uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree, db.appliedSeq
}

// RestoreHistories installs previously persisted session histories (from
// a snapshot manifest), so stats counters survive a restart. It is called
// during recovery, before the write-ahead tail is replayed.
func (db *Database) RestoreHistories(ints []integrate.Stats, evs []feedback.Event) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.Lock()
	db.integrations = append([]integrate.Stats(nil), ints...)
	db.events = append([]feedback.Event(nil), evs...)
	db.mu.Unlock()
}
