// Replication endpoints and the role machinery. A catalog-mode server is
// a primary: it ships committed write-ahead records (GET /dbs/{name}/wal,
// long-poll), serves bootstrap state (GET /dbs/{name}/snapshot) and
// reports positions (GET /replication). A replica server reuses the read
// endpoints over its follower catalog, while guardMutation turns every
// write verb into a 403 carrying the primary's address.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/store"
)

const (
	// maxWALLimit caps one /wal page regardless of the requested limit.
	maxWALLimit = 4096
	// maxWALWait caps the long-poll wait a /wal request may ask for.
	maxWALWait = 30 * time.Second
)

// wireCounters are the server's replication-wire counters: pages and
// snapshots served, pages that went out with records but no I frame,
// and the bytes written for all of them.
type wireCounters struct {
	pages, prefixSkipped, snapshots, bytes atomic.Int64
}

// countingWriter counts bytes into an atomic sink as they pass through.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// wireWriter starts a wal2 response: it sets the one Content-Type the
// replication endpoints answer with and returns a writer that counts
// what goes out.
func (s *Server) wireWriter(w http.ResponseWriter) io.Writer {
	w.Header().Set("Content-Type", replica.ContentType)
	return &countingWriter{w: w, n: &s.wire.bytes}
}

// ReadOnlyError is the 403 body a replica answers mutations with: the
// error plus the primary's address, so clients can redirect the write.
type ReadOnlyError struct {
	Error   string `json:"error"`
	Primary string `json:"primary"`
}

// writeReadOnly rejects a mutating verb on a read replica (or a demoted
// ex-primary).
func (s *Server) writeReadOnly(w http.ResponseWriter, verb string) {
	primary := s.primaryHint()
	if primary != "" {
		// A redirect hint, not a redirect: replaying a POST body across
		// hosts is the client's call to make.
		w.Header().Set("Location", primary)
	}
	what := "a read replica"
	if s.role() == "demoted" {
		what = "a demoted ex-primary"
	}
	writeJSON(w, http.StatusForbidden, ReadOnlyError{
		Error:   fmt.Sprintf("%s: this node is %s; send writes to the primary", verb, what),
		Primary: primary,
	})
}

// guardMutation wraps a mutating per-database handler with the replica
// read-only check.
func (s *Server) guardMutation(h func(http.ResponseWriter, *http.Request, target)) func(http.ResponseWriter, *http.Request, target) {
	return func(w http.ResponseWriter, r *http.Request, t target) {
		if s.isReadOnly() {
			s.writeReadOnly(w, r.URL.Path)
			return
		}
		h(w, r, t)
	}
}

// role names what this server is: "standalone" (one bare database),
// "primary" (durable catalog, or a promoted replica), "replica"
// (follower catalog), or "demoted" (an ex-primary that stepped down
// after a replica was promoted over it).
func (s *Server) role() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	switch {
	case s.rep != nil && !s.promoted:
		return "replica"
	case s.rep != nil:
		return "primary"
	case s.cat != nil && s.demoted:
		return "demoted"
	case s.cat != nil:
		return "primary"
	default:
		return "standalone"
	}
}

// handleWAL serves one page of a database's committed op log — the
// primary half of log shipping. Parameters: since (position to read past,
// default 0), limit (records per page, capped), wait (long-poll
// milliseconds to hold an empty page open for, capped), epoch (the
// follower's cluster epoch; a value above this node's means this node
// was deposed — it steps down and answers 409). A position the log
// cannot serve incrementally (compacted away, or beyond the log) is
// 410 Gone: the follower must bootstrap from /snapshot. tab is the mark
// of the string table the follower holds from the page that ended at
// since; if record since+1 extends that very table, no I frame is sent.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request, t target) {
	if t.cdb == nil {
		writeError(w, http.StatusServiceUnavailable, "wal: log shipping requires a durable catalog (start the server with a data directory)")
		return
	}
	q := r.URL.Query() // parsed once: r.URL.Query() builds a map per call
	have, err := codec.ParseTabMark(q.Get("tab"))
	num := func(name string) (n uint64) {
		if v := q.Get(name); v != "" && err == nil {
			if n, err = strconv.ParseUint(v, 10, 64); err != nil {
				err = fmt.Errorf("bad %s parameter %q", name, v)
			}
		}
		return n
	}
	since, followerEpoch := num("since"), num("epoch")
	limit := int(min(num("limit"), maxWALLimit))
	wait := time.Duration(min(num("wait"), uint64(maxWALWait/time.Millisecond))) * time.Millisecond
	if err != nil {
		writeError(w, http.StatusBadRequest, "wal: %v", err)
		return
	}
	if local := s.cat.Epoch(); followerEpoch > local {
		// The requester has witnessed a newer epoch than this node: a
		// replica was promoted over us. Step down rather than keep
		// shipping a log the cluster has moved past.
		s.stepDown(local, followerEpoch, "")
		writeError(w, http.StatusConflict, "wal: this node is at epoch %d, the cluster has moved to %d (stepping down)", local, followerEpoch)
		return
	}
	// Records ship as the raw payload bytes the log holds (no decode, no
	// re-encode), behind the string-table prefix they assume.
	var raws []catalog.RawWALRecord
	var prefix []string
	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		raws, prefix, err = t.cdb.WaitRawOps(ctx, since, limit, have)
		cancel()
	} else {
		raws, prefix, err = t.cdb.RawOpsSince(since, limit, have)
	}
	switch {
	case errors.Is(err, catalog.ErrSeqGone):
		writeError(w, http.StatusGone, "wal: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "wal: %v", err)
		return
	}
	// The (seq, digest) pair comes from one consistent snapshot, so a
	// follower reaching LastSeq can compare trees structurally.
	tree, seq := t.core.TreeSeq()
	page := replica.WALPage{
		Database: t.name,
		Since:    since,
		LastSeq:  seq,
		Digest:   replica.DigestString(tree),
		Epoch:    t.cdb.Epoch(),
	}
	s.wire.pages.Add(1)
	if len(raws) > 0 && len(prefix) == 0 {
		s.wire.prefixSkipped.Add(1)
	}
	// Headers are out once the first frame is written; a mid-stream
	// encode failure can only cut the connection, which the follower
	// detects as a truncated stream and retries.
	if err := replica.EncodeRawWALPage(s.wireWriter(w), &page, raws, prefix); err != nil {
		s.logf("wal: %s: streaming page since %d: %v", t.name, since, err)
	}
}

// handleSnapshot serves the database's full current state — the payload a
// follower bootstraps from, mirroring the store snapshot format.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, t target) {
	if t.cdb == nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot: replication requires a durable catalog (start the server with a data directory)")
		return
	}
	// Read the epoch before the view: if a concurrent raise lands between
	// the two reads the payload understates the epoch, which a follower
	// tolerates (it refuses only snapshots BELOW its own epoch).
	epoch := t.cdb.Epoch()
	v := t.core.View()
	pending, err := core.EncodePending(v.Pending)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	payload := replica.SnapshotPayload{
		Database:      t.name,
		FormatVersion: store.FormatVersion,
		Seq:           v.Seq,
		Epoch:         epoch,
		Digest:        replica.DigestString(v.Tree),
		Tree:          v.Tree,
		Integrations:  v.Integrations,
		Feedback:      v.Events,
		Pending:       pending,
	}
	if v.Schema != nil {
		payload.Schema = v.Schema.String()
	}
	s.wire.snapshots.Add(1)
	if err := replica.EncodeSnapshotShared(s.wireWriter(w), &payload); err != nil {
		s.logf("snapshot: %s: streaming: %v", t.name, err)
	}
}

// replicaReplicationResponse is the /replication body on a replica: the
// follower's live status under its role tag.
type replicaReplicationResponse struct {
	Role string `json:"role"`
	replica.Status
}

// handleReplication reports the node's replication role and positions:
// on a primary (or standalone server) the per-database shipped positions
// a follower syncs against, on a replica the follower lag and sync
// counters.
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	if s.rep != nil && !s.isPromoted() {
		writeJSON(w, http.StatusOK, replicaReplicationResponse{Role: "replica", Status: s.rep.Status()})
		return
	}
	ps := replica.PrimaryStatus{Role: s.role(), Primary: s.primaryHint(), Databases: []replica.PrimaryDBStatus{}}
	if s.cat != nil {
		ps.Epoch = s.cat.Epoch()
		for _, db := range s.cat.List() {
			tree, seq := db.Core().TreeSeq()
			st := db.Stats()
			ps.Databases = append(ps.Databases, replica.PrimaryDBStatus{
				Name:        db.Name(),
				LastSeq:     seq,
				Digest:      replica.DigestString(tree),
				SnapshotSeq: st.SnapshotSeq,
				TailOps:     st.TailOps,
				Epoch:       st.Epoch,
			})
		}
	}
	writeJSON(w, http.StatusOK, ps)
}

// HealthDB is one database row of a verbose health report.
type HealthDB struct {
	Name string `json:"name"`
	// CommittedSeq is the newest durable op; AppliedSeq the op the
	// in-memory tree reflects; TailOps how many ops a recovery would
	// replay; RecoveredOps how many the last open actually replayed.
	CommittedSeq uint64 `json:"committed_seq"`
	AppliedSeq   uint64 `json:"applied_seq"`
	TailOps      uint64 `json:"tail_ops"`
	RecoveredOps int64  `json:"recovered_ops"`
	// StoreFormat is the on-disk snapshot format version.
	StoreFormat int `json:"store_format,omitempty"`
	// PrimarySeq and Lag are present on replicas.
	PrimarySeq uint64 `json:"primary_seq,omitempty"`
	Lag        uint64 `json:"lag,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	// Ingest rows are present when the database runs an async ingest
	// queue: current depth vs capacity, and whether the drain goroutine is
	// active on this node (primaries and standalone servers only —
	// follower queues advance through replicated apply records).
	IngestDepth    int   `json:"ingest_depth,omitempty"`
	IngestCapacity int   `json:"ingest_capacity,omitempty"`
	IngestRunning  *bool `json:"ingest_running,omitempty"`
}

// HealthResponse is the /healthz body. The bare probe keeps its original
// one-field contract ({"status":"ok"}, always 200 while the process
// serves); ?verbose=1 adds the readiness report — role, per-database log
// positions, and on followers the replication lag.
type HealthResponse struct {
	Status  string `json:"status"`
	Role    string `json:"role,omitempty"`
	Primary string `json:"primary,omitempty"`
	// Epoch is the node's cluster epoch (catalog and replica modes).
	Epoch     *uint64    `json:"epoch,omitempty"`
	Connected *bool      `json:"connected,omitempty"`
	Databases []HealthDB `json:"databases,omitempty"`
}

// handleHealthz is the liveness probe — O(1) by default on purpose, so
// orchestrators can poll it against arbitrarily large documents (world
// counting lives in /stats, where the cost is expected). verbose=1 adds
// per-database readiness detail, still without touching document sizes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	verbose := false
	switch v := r.URL.Query().Get("verbose"); v {
	case "", "0", "false":
	case "1", "true":
		verbose = true
	default:
		writeError(w, http.StatusBadRequest, "healthz: bad verbose parameter %q (0 | 1)", v)
		return
	}
	resp := HealthResponse{Status: "ok"}
	if !verbose {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Role = s.role()
	if s.cat != nil {
		epoch := s.cat.Epoch()
		resp.Epoch = &epoch
	}
	var lagByName map[string]replica.DBStatus
	if s.rep != nil && !s.isPromoted() {
		st := s.rep.Status()
		resp.Primary = st.Primary
		connected := st.Connected
		resp.Connected = &connected
		lagByName = make(map[string]replica.DBStatus, len(st.Databases))
		for _, d := range st.Databases {
			lagByName[d.Name] = d
		}
	} else if p := s.primaryHint(); p != "" {
		// A demoted ex-primary discloses where writes went.
		resp.Primary = p
	}
	resp.Databases = []HealthDB{}
	if s.cat != nil {
		for _, db := range s.cat.List() {
			st := db.Stats()
			row := HealthDB{
				Name:         db.Name(),
				CommittedSeq: st.WAL.LastSeq,
				AppliedSeq:   db.Core().AppliedSeq(),
				TailOps:      st.TailOps,
				RecoveredOps: st.RecoveredOps,
				StoreFormat:  st.StoreFormat,
			}
			if d, ok := lagByName[db.Name()]; ok {
				row.PrimarySeq = d.PrimarySeq
				row.Lag = d.Lag
				row.LastError = d.LastError
			}
			if iq := db.Core().IngestStats(); iq.Enabled {
				running := db.Core().IngestRunning()
				row.IngestDepth = iq.Depth
				row.IngestCapacity = iq.Capacity
				row.IngestRunning = &running
			}
			resp.Databases = append(resp.Databases, row)
		}
	} else if s.db != nil {
		resp.Databases = append(resp.Databases, HealthDB{
			Name:       catalog.DefaultName,
			AppliedSeq: s.db.AppliedSeq(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
