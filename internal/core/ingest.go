// Async ingest: a bounded per-database FIFO queue that takes integration
// off the request path. Enqueue accepts source documents in O(1) — it
// journals an enqueue record and returns a ticket — and a single
// integrator goroutine (StartIngest) drains the queue, batching every
// source pending at drain time into one writer-lock cycle and one
// journal record.
//
// Crash safety: the pending queue is journaled database state. An
// enqueue advances the applied sequence like any mutation, snapshots
// capture the queue (SnapshotView.Pending), and the apply record names
// its tickets instead of re-shipping sources — so replaying any log
// prefix reproduces exactly the accepted-but-unapplied set, and every
// acknowledged source is integrated exactly once no matter where a crash
// lands.
//
// Locking: Enqueue takes only commitMu (journal append + state update),
// never writeMu — accepting a source never waits behind a long-running
// integration. The drainer is a normal writer: writeMu for the fold,
// commitMu for the commit.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/queryindex"
	"repro/internal/store"
	"repro/internal/xmlcodec"
)

// ErrQueueFull is returned by Enqueue when the ingest queue already holds
// IngestDepth accepted-but-unapplied entries. Callers should retry after
// backing off (the HTTP layer maps it to 429 + Retry-After).
var ErrQueueFull = errors.New("core: ingest queue full")

// ErrQueueDisabled is returned by Enqueue when the database was opened
// without an ingest queue (Config.IngestDepth == 0).
var ErrQueueDisabled = errors.New("core: ingest queue disabled")

// ErrUnknownTicket is returned by TicketStatus for tickets the database
// has no record of (never issued, or finished beyond the retention
// window / before the last snapshot).
var ErrUnknownTicket = errors.New("core: unknown ingest ticket")

// ticketRetention bounds how many finished (applied/failed) ticket
// statuses are kept for lookup; older ones are evicted FIFO.
const ticketRetention = 4096

// PendingSource is one accepted-but-unapplied ingest queue entry: the
// source document(s) of a single ticket, applied atomically.
type PendingSource struct {
	Ticket string
	Trees  []*pxml.Tree
}

// TicketState is the lifecycle state of an ingest ticket.
type TicketState string

const (
	// TicketPending means accepted and journaled, not yet integrated.
	TicketPending TicketState = "pending"
	// TicketApplied means integrated into the document.
	TicketApplied TicketState = "applied"
	// TicketFailed means integration failed; the entry was dropped and
	// Error carries the reason.
	TicketFailed TicketState = "failed"
)

// TicketStatus reports the state of one ingest ticket.
type TicketStatus struct {
	Ticket string      `json:"ticket"`
	State  TicketState `json:"state"`
	// Error is the integration failure, for failed tickets.
	Error string `json:"error,omitempty"`
	// Seq is the journal sequence of the apply record, once applied.
	Seq uint64 `json:"seq,omitempty"`
}

// IngestStats is an observability snapshot of the queue.
type IngestStats struct {
	// Enabled reports whether the database was opened with a queue.
	Enabled bool `json:"enabled"`
	// Capacity is the configured depth bound; Depth the current fill.
	Capacity int `json:"capacity"`
	Depth    int `json:"depth"`
	// Accepted, Applied and Failed count tickets over the database's
	// lifetime (restored counts resume after recovery replay).
	Accepted int64 `json:"accepted"`
	Applied  int64 `json:"applied"`
	Failed   int64 `json:"failed"`
}

// IngestStats reports the queue counters.
func (db *Database) IngestStats() IngestStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return IngestStats{
		Enabled:  db.cfg.IngestDepth > 0,
		Capacity: db.cfg.IngestDepth,
		Depth:    len(db.pending),
		Accepted: db.accepted,
		Applied:  db.applied,
		Failed:   db.failed,
	}
}

// PendingCount returns the current queue depth.
func (db *Database) PendingCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.pending)
}

// TicketStatus looks up an ingest ticket. Finished tickets are retained
// for a bounded window; beyond it (or after a snapshot-truncated restart)
// the lookup reports ErrUnknownTicket.
func (db *Database) TicketStatus(ticket string) (TicketStatus, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st, ok := db.statuses[ticket]
	if !ok {
		return TicketStatus{}, ErrUnknownTicket
	}
	return *st, nil
}

// Enqueue accepts source document(s) into the ingest queue as one atomic
// entry and returns its ticket. The entry is journaled before the ticket
// is issued, so an acknowledged source survives a crash; it is integrated
// later by the drain goroutine (StartIngest), in acceptance order.
// Enqueue never waits behind a running integration; when the queue holds
// IngestDepth entries it fails fast with ErrQueueFull.
func (db *Database) Enqueue(trees []*pxml.Tree) (string, error) {
	if db.cfg.IngestDepth <= 0 {
		return "", ErrQueueDisabled
	}
	if len(trees) == 0 {
		return "", errors.New("core: empty enqueue")
	}
	for i, t := range trees {
		if t == nil {
			return "", fmt.Errorf("core: enqueue source %d is nil", i+1)
		}
	}
	db.commitMu.Lock()
	if depth := len(db.pending); depth >= db.cfg.IngestDepth {
		db.commitMu.Unlock()
		return "", fmt.Errorf("%w: %d entries pending", ErrQueueFull, depth)
	}
	db.ticketSeq++
	ticket := "t" + strconv.FormatUint(db.ticketSeq, 10)
	seq, journaled, err := db.record(Op{Kind: OpEnqueue, SourceTrees: trees, Ticket: ticket})
	if err != nil {
		db.ticketSeq--
		db.commitMu.Unlock()
		return "", err
	}
	db.mu.Lock()
	db.pending = append(db.pending, PendingSource{Ticket: ticket, Trees: trees})
	db.statuses[ticket] = &TicketStatus{Ticket: ticket, State: TicketPending}
	db.accepted++
	if journaled {
		db.appliedSeq = seq
	}
	db.mu.Unlock()
	db.commitMu.Unlock()
	db.wakeDrainer()
	return ticket, nil
}

// StartIngest launches the drain goroutine. It is a no-op when the queue
// is disabled or the drainer is already running. Entries recovered into
// the queue by a restart begin draining immediately. Only nodes that may
// mutate (standalone or primary role) should start it — a follower's
// queue advances through replicated apply records instead.
func (db *Database) StartIngest() {
	if db.cfg.IngestDepth <= 0 {
		return
	}
	db.mu.Lock()
	if db.drainWake != nil {
		db.mu.Unlock()
		return
	}
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	db.drainWake, db.drainStop, db.drainDone = wake, stop, done
	db.mu.Unlock()
	go db.drainLoop(wake, stop, done)
	db.wakeDrainer()
}

// StopIngest stops the drain goroutine and waits for it to finish its
// current cycle. Pending entries stay queued (and journaled); a later
// StartIngest resumes them. It is a no-op when not running.
func (db *Database) StopIngest() {
	db.mu.Lock()
	stop, done := db.drainStop, db.drainDone
	db.drainWake, db.drainStop, db.drainDone = nil, nil, nil
	db.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// IngestRunning reports whether the drain goroutine is active.
func (db *Database) IngestRunning() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.drainWake != nil
}

func (db *Database) wakeDrainer() {
	db.mu.RLock()
	wake := db.drainWake
	db.mu.RUnlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default: // a wake-up is already queued
		}
	}
}

func (db *Database) drainLoop(wake <-chan struct{}, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-wake:
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			progressed, err := db.drainOnce()
			if err != nil {
				// Journal trouble: the batch stays pending. Back off so a
				// persistently failing log does not spin the drainer.
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Millisecond):
				}
				continue
			}
			if !progressed {
				break
			}
		}
	}
}

// drainOnce integrates every entry pending at call time in one
// writer-lock cycle. Entries whose integration fails are dropped from
// the queue with their error recorded; the rest fold into the document
// left to right and land with a single swap and a single journal record.
// It reports whether it consumed any entries; an error means the commit
// could not be journaled and nothing changed.
func (db *Database) drainOnce() (bool, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.RLock()
	batch := append([]PendingSource(nil), db.pending...)
	db.mu.RUnlock()
	if len(batch) == 0 {
		return false, nil
	}
	// The fold runs on snapshots outside every lock readers use; new
	// enqueues may append behind the batch concurrently and are simply
	// left for the next cycle.
	cur := db.Tree()
	var (
		applied    []string
		failed     []string
		failedErrs []string
		statsList  []integrate.Stats
	)
	for _, entry := range batch {
		next, entryStats, err := db.foldIntegrate(cur, entry.Trees)
		if err != nil {
			failed = append(failed, entry.Ticket)
			failedErrs = append(failedErrs, err.Error())
			continue
		}
		cur = next
		applied = append(applied, entry.Ticket)
		statsList = append(statsList, entryStats...)
	}
	var idx *queryindex.Index
	if len(applied) > 0 {
		idx = db.buildIndex(cur)
	}
	op := Op{Kind: OpApplyQueued, Tickets: applied, Failed: failed, FailedErrors: failedErrs, Stats: statsList}
	db.commitMu.Lock()
	seq, journaled, err := db.record(op)
	if err != nil {
		db.commitMu.Unlock()
		return false, err
	}
	db.mu.Lock()
	if len(applied) > 0 {
		db.setTreeLocked(cur, idx)
		db.integrations = append(db.integrations, statsList...)
	}
	if journaled {
		db.appliedSeq = seq
	}
	db.finishBatchLocked(applied, failed, failedErrs, seq)
	db.mu.Unlock()
	db.commitMu.Unlock()
	return true, nil
}

// applyEnqueueOp replays (or, on a follower, applies) an enqueue record:
// the ticket comes from the op, depth limits are not re-checked (the
// entry was already acknowledged), and the drainer is not woken (recovery
// and replication contexts drain under their own control).
func (db *Database) applyEnqueueOp(op Op) error {
	if op.Ticket == "" {
		return errors.New("core: replay: enqueue op without ticket")
	}
	trees := op.SourceTrees
	if len(trees) == 0 {
		return fmt.Errorf("core: replay enqueue %s: op has no sources", op.Ticket)
	}
	db.commitMu.Lock()
	seq, journaled, err := db.record(op)
	if err != nil {
		db.commitMu.Unlock()
		return err
	}
	db.mu.Lock()
	db.pending = append(db.pending, PendingSource{Ticket: op.Ticket, Trees: trees})
	db.statuses[op.Ticket] = &TicketStatus{Ticket: op.Ticket, State: TicketPending}
	db.noteTicketLocked(op.Ticket)
	db.accepted++
	if journaled {
		db.appliedSeq = seq
	}
	db.mu.Unlock()
	db.commitMu.Unlock()
	return nil
}

// applyQueuedOp replays (or applies, on a follower) an apply record: the
// named tickets are resolved from the pending queue — their sources were
// journaled by their enqueue records or restored from the snapshot
// manifest — and folded exactly as the original drain cycle folded them.
// The op's recorded Stats are installed in place of the recomputed
// counters (see integrateSources for why).
func (db *Database) applyQueuedOp(op Op) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.RLock()
	byTicket := make(map[string]PendingSource, len(db.pending))
	for _, p := range db.pending {
		byTicket[p.Ticket] = p
	}
	db.mu.RUnlock()
	cur := db.Tree()
	var statsList []integrate.Stats
	sourceCount := 0
	for _, tk := range op.Tickets {
		entry, ok := byTicket[tk]
		if !ok {
			return fmt.Errorf("core: replay: applied ticket %s not in pending queue", tk)
		}
		next, entryStats, err := db.foldIntegrate(cur, entry.Trees)
		if err != nil {
			// The original run applied this entry; a failure here means
			// the replayed state diverged from the recorded one.
			return fmt.Errorf("core: replay: ticket %s no longer integrates: %w", tk, err)
		}
		cur = next
		statsList = append(statsList, entryStats...)
		sourceCount += len(entry.Trees)
	}
	for _, tk := range op.Failed {
		if _, ok := byTicket[tk]; !ok {
			return fmt.Errorf("core: replay: failed ticket %s not in pending queue", tk)
		}
	}
	if len(op.Stats) == sourceCount {
		statsList = append([]integrate.Stats(nil), op.Stats...)
	}
	var idx *queryindex.Index
	if len(op.Tickets) > 0 {
		idx = db.buildIndex(cur)
	}
	db.commitMu.Lock()
	seq, journaled, err := db.record(op)
	if err != nil {
		db.commitMu.Unlock()
		return err
	}
	db.mu.Lock()
	if len(op.Tickets) > 0 {
		db.setTreeLocked(cur, idx)
		db.integrations = append(db.integrations, statsList...)
	}
	if journaled {
		db.appliedSeq = seq
	}
	db.finishBatchLocked(op.Tickets, op.Failed, op.FailedErrors, seq)
	db.mu.Unlock()
	db.commitMu.Unlock()
	return nil
}

// finishBatchLocked removes the named tickets from the pending queue and
// records their final statuses. Callers hold mu.
func (db *Database) finishBatchLocked(applied, failed, failedErrs []string, seq uint64) {
	drop := make(map[string]bool, len(applied)+len(failed))
	for _, tk := range applied {
		drop[tk] = true
	}
	for _, tk := range failed {
		drop[tk] = true
	}
	kept := db.pending[:0]
	for _, p := range db.pending {
		if !drop[p.Ticket] {
			kept = append(kept, p)
		}
	}
	db.pending = kept
	for _, tk := range applied {
		db.finishTicketLocked(tk, TicketApplied, "", seq)
	}
	for i, tk := range failed {
		msg := "integration failed"
		if i < len(failedErrs) {
			msg = failedErrs[i]
		}
		db.finishTicketLocked(tk, TicketFailed, msg, seq)
	}
	db.applied += int64(len(applied))
	db.failed += int64(len(failed))
}

func (db *Database) finishTicketLocked(ticket string, state TicketState, errMsg string, seq uint64) {
	st := db.statuses[ticket]
	if st == nil {
		st = &TicketStatus{Ticket: ticket}
		db.statuses[ticket] = st
	}
	st.State, st.Error, st.Seq = state, errMsg, seq
	db.statusOrder = append(db.statusOrder, ticket)
	for len(db.statusOrder) > ticketRetention {
		old := db.statusOrder[0]
		db.statusOrder = db.statusOrder[1:]
		if s, ok := db.statuses[old]; ok && s.State != TicketPending {
			delete(db.statuses, old)
		}
	}
}

// noteTicketLocked raises the ticket counter past a ticket id issued by a
// previous incarnation, so recovered databases never reissue a live id.
// Callers hold mu (or are in single-threaded recovery).
func (db *Database) noteTicketLocked(ticket string) {
	num, ok := strings.CutPrefix(ticket, "t")
	if !ok {
		return
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return
	}
	if n > db.ticketSeq {
		db.ticketSeq = n
	}
}

// RestorePending installs a snapshot's pending queue (and ticket
// statuses) during recovery, before the write-ahead tail is replayed —
// the queue counterpart of RestoreHistories.
func (db *Database) RestorePending(entries []PendingSource) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.commitMu.Lock()
	db.mu.Lock()
	db.pending = append([]PendingSource(nil), entries...)
	for _, p := range entries {
		db.statuses[p.Ticket] = &TicketStatus{Ticket: p.Ticket, State: TicketPending}
		db.noteTicketLocked(p.Ticket)
	}
	db.accepted += int64(len(entries))
	db.mu.Unlock()
	db.commitMu.Unlock()
}

// EncodePending converts queue entries to their snapshot-manifest form
// (sources as XML strings).
func EncodePending(entries []PendingSource) ([]store.PendingDoc, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	docs := make([]store.PendingDoc, len(entries))
	for i, p := range entries {
		srcs := make([]string, len(p.Trees))
		for j, t := range p.Trees {
			s, err := xmlcodec.EncodeString(t, xmlcodec.EncodeOptions{KeepTrivial: true})
			if err != nil {
				return nil, fmt.Errorf("core: encoding pending %s source %d: %w", p.Ticket, j+1, err)
			}
			srcs[j] = s
		}
		docs[i] = store.PendingDoc{Ticket: p.Ticket, Sources: srcs}
	}
	return docs, nil
}

// DecodePending converts snapshot-manifest queue entries back to their
// in-memory form.
func DecodePending(docs []store.PendingDoc) ([]PendingSource, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	entries := make([]PendingSource, len(docs))
	for i, d := range docs {
		trees := make([]*pxml.Tree, len(d.Sources))
		for j, src := range d.Sources {
			t, err := xmlcodec.DecodeString(src)
			if err != nil {
				return nil, fmt.Errorf("core: decoding pending %s source %d: %w", d.Ticket, j+1, err)
			}
			trees[j] = t
		}
		entries[i] = PendingSource{Ticket: d.Ticket, Trees: trees}
	}
	return entries, nil
}
