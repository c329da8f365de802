// Replication support: the catalog's write-ahead log doubles as a
// shipping log. A primary serves its committed records through
// RawOpsSince / WaitRawOps (the long-poll read path); a follower applies
// shipped records through ApplyReplicated, which re-journals each op into
// the follower's OWN write-ahead log at the same sequence before the tree
// swap — so a follower is crash-safe by exactly the machinery that makes
// a primary crash-safe, and its durable lastApplied position is simply
// its log's last committed sequence. InstallSnapshot bootstraps (or
// resets) a follower database from a primary state snapshot at a known
// log position, after which incremental tailing resumes from there.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/dtd"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/store"
)

// ErrReplicaGap is returned by ApplyReplicated when the shipped sequence
// does not continue the follower's log: records were lost between primary
// and follower, and the follower must resynchronize from a snapshot.
var ErrReplicaGap = errors.New("catalog: replicated op does not continue the local log")

// ErrStaleEpoch is returned when a shipped record (or snapshot) carries
// a cluster epoch below the local one: the sender is a deposed primary
// still writing under its old term. Its records must never be applied —
// accepting them would fork history past the promotion point — and the
// sender should step down when it sees this error.
var ErrStaleEpoch = errors.New("catalog: record epoch below local epoch (stale primary)")

// LastSeq returns the sequence of the newest committed record in the
// database's write-ahead log — on a follower, the durable lastApplied
// position tailing resumes from.
func (d *DB) LastSeq() uint64 { return d.wal.stats().LastSeq }

// OpsSince returns up to limit committed records with sequence > after,
// oldest first (limit <= 0 means a default batch). It fails with
// ErrSeqGone when the range was compacted away or lies beyond the log;
// the caller must then resynchronize from a snapshot.
func (d *DB) OpsSince(after uint64, limit int) ([]WALRecord, error) {
	return d.wal.opsSince(after, limit)
}

// RawOpsSince is OpsSince without the decode: the same page of records
// as the exact payload bytes the log holds. The replication wire serves
// from this — shipping a record then costs a CRC check and a header
// peek, not a tree decode plus re-encode per page. The returned
// prefix is the interned-string table the first shipped record's strtab
// delta is based on (the cumulative deltas of the same-segment records
// before it); the wire ships it ahead of the page so the receiver can
// resolve string refs without holding per-peer decode state — unless the
// receiver kept the table of the page that ended at after and have, its
// mark, is the first record's in the log's index: then prefix is empty.
func (d *DB) RawOpsSince(after uint64, limit int, have codec.TabMark) ([]RawWALRecord, []string, error) {
	return d.wal.rawOpsSince(after, limit, have)
}

// WaitRawOps is RawOpsSince with long-poll semantics: when no records
// past after exist yet, it blocks until one commits or ctx ends, and a
// timeout returns an empty page with no error (the normal idle long-poll
// result). Position errors (ErrSeqGone) are returned immediately.
func (d *DB) WaitRawOps(ctx context.Context, after uint64, limit int, have codec.TabMark) ([]RawWALRecord, []string, error) {
	for {
		// Take the commit signal before checking the log: a commit landing
		// between the check and the select then finds a fresh channel and
		// cannot be missed.
		ch := d.commitSignal()
		recs, prefix, err := d.RawOpsSince(after, limit, have)
		if err != nil || len(recs) > 0 {
			return recs, prefix, err
		}
		select {
		case <-ctx.Done():
			return nil, nil, nil
		case <-ch:
		}
	}
}

// notifyCommit broadcasts a durable append to blocked WaitRawOps callers by
// closing the current signal channel and replacing it.
func (d *DB) notifyCommit() {
	d.commitMu.Lock()
	close(d.commitCh)
	d.commitCh = make(chan struct{})
	d.commitMu.Unlock()
}

// commitSignal returns a channel closed at the next durable append.
func (d *DB) commitSignal() <-chan struct{} {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	return d.commitCh
}

// ApplyReplicated applies one record shipped from a primary at the
// primary's sequence and epoch. A sequence at or below the local log's
// last committed record is skipped (idempotent re-delivery after a
// reconnect); a sequence past lastApplied+1 is ErrReplicaGap. A record
// whose epoch is below the local epoch is ErrStaleEpoch — the sender is
// a deposed primary and nothing it ships may land here; a higher epoch
// raises the local one first, so the follower's log mirrors the
// primary's record for record, epochs included. The apply runs through
// core.ApplyOp, i.e. the same journaled-then-swap discipline as a local
// mutation: the op is durably appended to the follower's own write-ahead
// log — necessarily at the shipped sequence — before the tree swap
// exposes it, so a kill at any instant resumes from the durable
// lastApplied without double-applying. The returned bool reports whether
// the op was applied (false: skipped as already applied).
func (d *DB) ApplyReplicated(rec WALRecord) (bool, error) {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	last := d.LastSeq()
	if rec.Seq <= last {
		return false, nil
	}
	if local := d.wal.currentEpoch(); rec.Epoch < local {
		return false, fmt.Errorf("%w: op %d shipped at epoch %d, local epoch is %d", ErrStaleEpoch, rec.Seq, rec.Epoch, local)
	}
	if rec.Seq != last+1 {
		return false, fmt.Errorf("%w: got sequence %d after %d", ErrReplicaGap, rec.Seq, last)
	}
	// Raise before the apply so the journal append underneath ApplyOp
	// stamps the shipped epoch.
	d.wal.raiseEpoch(rec.Epoch)
	if err := d.core.ApplyOp(rec.Op); err != nil {
		return false, fmt.Errorf("catalog: %s: applying replicated op %d: %w", d.name, rec.Seq, err)
	}
	if got := d.LastSeq(); got != rec.Seq {
		// A local (non-replicated) mutation slipped in between and stole
		// the sequence — the follower has diverged from the primary's
		// numbering and must resynchronize.
		return false, fmt.Errorf("%w: op shipped as %d journaled locally as %d", ErrReplicaGap, rec.Seq, got)
	}
	return true, nil
}

// BootstrapSnapshot is the state a follower installs to (re)join a
// primary: the document as of a primary log position, plus the schema and
// session histories that position reflects.
type BootstrapSnapshot struct {
	// Seq is the primary log sequence the tree corresponds to; tailing
	// resumes at Seq+1.
	Seq uint64
	// Epoch is the cluster epoch in force at Seq (0 for pre-epoch
	// primaries). Installing below the local epoch is refused.
	Epoch        uint64
	Tree         *pxml.Tree
	Schema       *dtd.Schema
	Integrations []integrate.Stats
	Feedback     []feedback.Event
	// Comment is stored in the snapshot manifest ("" gets a default).
	Comment string
}

// InstallSnapshot bootstraps (or resets) the named database from a
// primary snapshot: any existing local state — tree, write-ahead log,
// named snapshots — is discarded, the shipped state is persisted as the
// database's state snapshot at log position snap.Seq (v2 store format,
// durable before the database opens), and the database is reopened with a
// fresh log continuing at Seq+1. Used by followers joining a primary and
// recovering from divergence.
func (c *Catalog) InstallSnapshot(name string, snap BootstrapSnapshot) (*DB, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if snap.Tree == nil {
		return nil, errors.New("catalog: nil snapshot tree")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("catalog: closed")
	}
	if old, ok := c.dbs[name]; ok {
		if e := old.Epoch(); snap.Epoch < e {
			// A snapshot from a deposed primary must never replace state
			// committed under a newer epoch.
			return nil, fmt.Errorf("%w: snapshot at epoch %d, local epoch is %d", ErrStaleEpoch, snap.Epoch, e)
		}
		delete(c.dbs, name)
		if err := old.close(false); err != nil {
			return nil, err
		}
	}
	dbDir := filepath.Join(c.dir, name)
	if err := os.RemoveAll(dbDir); err != nil {
		return nil, err
	}
	comment := snap.Comment
	if comment == "" {
		comment = "replication bootstrap of " + name
	}
	if _, err := store.SaveWith(filepath.Join(dbDir, stateDirName), snap.Tree, snap.Schema, store.SaveOptions{
		Comment:      comment,
		LogSeq:       snap.Seq,
		Epoch:        snap.Epoch,
		Integrations: snap.Integrations,
		Feedback:     snap.Feedback,
	}); err != nil {
		return nil, err
	}
	db, err := c.openDB(name, 0)
	if err != nil {
		return nil, err
	}
	c.dbs[name] = db
	return db, nil
}
