// Package server exposes IMPrECISE probabilistic databases over a
// JSON-over-HTTP API — the interactive integration service the paper's
// demo describes: clients POST XML sources to integrate, issue ranked
// probabilistic queries, feed judgments back, and persist/restore
// snapshots. The databases' copy-on-write concurrency discipline means
// query traffic keeps being served from a consistent snapshot while an
// integration is in flight.
//
// Every server fronts a catalog: a durable multi-database catalog
// (NewCatalog), or the follower catalog of a read replica (NewReplica).
// Every database is addressed under /dbs/{name}/…, and only PUT
// /dbs/{name} creates one: a request to a database that does not exist
// answers 404 and changes nothing.
//
// A catalog server is a replication primary: it ships its write-ahead
// logs under GET /dbs/{name}/wal (long-poll framed op stream), serves
// bootstrap state under GET /dbs/{name}/snapshot, and reports positions
// under GET /replication. A replica server serves every read verb from
// its local follower catalog but rejects mutations with 403 plus the
// primary's address. It exposes the same log-shipping read endpoints
// over its own catalog; the official follower client still refuses to
// sync off a replica, keeping replication trees rooted at primaries.
//
// Per-database endpoints, each under /dbs/{name} (all responses are
// JSON; errors use {"error": "…"}):
//
//	POST /integrate?mode=merge|replace  XML body -> integration stats
//	POST /integrate/batch               {"sources":["<xml>…",…]} -> per-source stats
//	GET  /query?q=…&top=N&seed=S        ranked answers; method=auto|exact|
//	     &method=M&samples=N&explain=1  enumerate|sample, explain=1 adds
//	     &budget_ms=B                   the evaluation plan, budget_ms
//	                                    bounds wall time (408 +
//	                                    budget_exhausted)
//	POST /feedback                      {"query","value","correct"} -> event
//	GET  /stats                         document, cache, WAL/compaction
//	                                    and server statistics
//	GET  /worlds?max=N                  enumerated possible worlds (at
//	                                    most DefaultMaxWorlds)
//	GET  /export                        the document as probabilistic XML
//	POST /save                          {"name","comment"} -> manifest of
//	                                    the database's named snapshot
//	POST /load                          {"name"} -> manifest
//	GET  /wal?since=&limit=&wait=       committed op-log page (long-poll
//	                                    when wait>0; 410 when compacted
//	                                    past since)
//	GET  /snapshot                      full-state bootstrap payload
//
// Catalog and node endpoints:
//
//	GET    /dbs                         list databases + durability stats
//	PUT    /dbs/{name}                  create (201)
//	DELETE /dbs/{name}                  drop (irreversible)
//	GET    /healthz                     liveness probe; ?verbose=1 adds a
//	                                    readiness report (per-db log
//	                                    positions, replication lag)
//	GET    /replication                 role + per-database replication
//	                                    positions / follower lag
//	POST   /promote, /stepdown          failover (see promote.go)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/worlds"
	"repro/internal/xmlcodec"
)

// DefaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is
// zero (8 MiB — generous for XML sources, small enough to shrug off
// accidental uploads).
const DefaultMaxBodyBytes = 8 << 20

// DefaultMaxWorlds is the ceiling on the number of worlds a single
// /worlds response enumerates; max parameters above it are clamped
// down to it (the parameter's own default is 20).
const DefaultMaxWorlds = 1000

// Options configure a Server.
type Options struct {
	// MaxBodyBytes bounds request bodies (0 means DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Logger receives one line per request; nil disables logging.
	Logger *log.Logger
}

// Server is the HTTP front end over a durable multi-database catalog or
// a read replica's follower catalog. A replica server can be promoted to
// primary at runtime (POST /promote) and a primary can step down (POST
// /stepdown), so the role state below is mutable and guarded.
type Server struct {
	cat  *catalog.Catalog
	rep  *replica.Replica // replica mode; cat is then the follower catalog
	opts Options
	mux  *http.ServeMux

	// roleMu guards the mutable role state: readOnly, primary, promoted
	// and demoted. promoteMu serializes whole promotions (held across the
	// drain + epoch raise, not just the flag flip).
	roleMu    sync.RWMutex
	promoteMu sync.Mutex
	// readOnly rejects every mutating verb with 403 + primary (replica
	// mode, and demoted ex-primaries).
	readOnly bool
	primary  string
	// promoted: this server started as a replica and was promoted; it now
	// serves as a primary over the (former follower) catalog. demoted:
	// this server started as a primary and stepped down after a replica
	// was promoted over it.
	promoted bool
	demoted  bool

	// fencing goroutine bookkeeping (started by a promotion).
	fenceCancel context.CancelFunc
	fenceWG     sync.WaitGroup

	// wire counts replication pages/snapshots served and the bytes
	// written for them (replication.go).
	wire wireCounters
}

// NewCatalog builds a Server over a durable multi-database catalog. Each
// database is addressed under /dbs/{name}/…. The catalog carries all
// integration knowledge (schema, rules); the server only translates HTTP.
func NewCatalog(cat *catalog.Catalog, opts Options) *Server {
	return newServer(cat, nil, opts)
}

// NewReplica builds a read-replica Server over a live follower. Every
// read verb is served from the follower catalog's local state; every
// mutating verb is rejected with 403 and the primary's address, so
// clients know where to send writes.
func NewReplica(rep *replica.Replica, opts Options) *Server {
	return newServer(rep.Catalog(), rep, opts)
}

func newServer(cat *catalog.Catalog, rep *replica.Replica, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{cat: cat, rep: rep, opts: opts, mux: http.NewServeMux()}
	if rep != nil {
		s.readOnly = true
		s.primary = rep.Primary()
	}
	// The per-database verbs. Mutating verbs are guarded: a replica
	// rejects them with 403 + primary.
	verbs := []struct {
		pattern  string
		h        func(http.ResponseWriter, *http.Request, *catalog.DB)
		mutating bool
	}{
		{"POST /dbs/{name}/integrate", s.handleIntegrate, true},
		{"POST /dbs/{name}/integrate/batch", s.handleIntegrateBatch, true},
		{"GET /dbs/{name}/query", s.handleQuery, false},
		{"POST /dbs/{name}/feedback", s.handleFeedback, true},
		{"GET /dbs/{name}/stats", s.handleStats, false},
		{"GET /dbs/{name}/worlds", s.handleWorlds, false},
		{"GET /dbs/{name}/export", s.handleExport, false},
		// save writes a server-side snapshot file without touching the
		// database — legal on a replica (local backups of replicated
		// state); load swaps the document and is a mutation.
		{"POST /dbs/{name}/save", s.handleSave, false},
		{"POST /dbs/{name}/load", s.handleLoad, true},
		{"GET /dbs/{name}/wal", s.handleWAL, false},
		{"GET /dbs/{name}/snapshot", s.handleSnapshot, false},
	}
	for _, v := range verbs {
		h := v.h
		if v.mutating {
			h = s.guardMutation(h)
		}
		s.mux.HandleFunc(v.pattern, s.withNamed(h))
	}
	s.mux.HandleFunc("GET /dbs", s.handleListDBs)
	s.mux.HandleFunc("PUT /dbs/{name}", s.handleCreateDB)
	s.mux.HandleFunc("DELETE /dbs/{name}", s.handleDropDB)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /replication", s.handleReplication)
	s.mux.HandleFunc("POST /promote", s.handlePromote)
	s.mux.HandleFunc("POST /stepdown", s.handleStepdown)
	return s
}

// Close stops background work the server may have started (the fencing
// goroutine a promotion spawns). It does not close the underlying
// catalog or replica; their owners do that.
func (s *Server) Close() {
	s.roleMu.Lock()
	cancel := s.fenceCancel
	s.fenceCancel = nil
	s.roleMu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.fenceWG.Wait()
}

// isReadOnly reports whether mutating verbs are currently rejected.
func (s *Server) isReadOnly() bool {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.readOnly
}

// primaryHint is the URL of the node this server believes is the
// primary ("" when it is the primary itself, or does not know).
func (s *Server) primaryHint() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.primary
}

// isPromoted reports whether this replica server has been promoted.
func (s *Server) isPromoted() bool {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.promoted
}

// withNamed routes a /dbs/{name}/… request to the named catalog database.
func (s *Server) withNamed(h func(http.ResponseWriter, *http.Request, *catalog.DB)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		db, err := s.cat.Get(name)
		if err != nil {
			writeError(w, catalogErrStatus(err), "db %q: %v", name, err)
			return
		}
		h(w, r, db)
	}
}

// catalogErrStatus maps catalog errors onto HTTP statuses.
func catalogErrStatus(err error) int {
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrBadName):
		return http.StatusBadRequest
	case errors.Is(err, catalog.ErrExists):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// Handler returns the server's routes wrapped in the middleware stack
// (panic recovery, body limits, request logging).
func (s *Server) Handler() http.Handler {
	return chain(s.mux,
		withRequestLog(s.opts.Logger),
		withBodyLimit(s.opts.MaxBodyBytes),
		withRecover(s.opts.Logger),
	)
}

// --- response plumbing ---

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are out; nothing useful to do on error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a JSON request body into v, rejecting unknown fields
// so client typos surface as 400s instead of silent defaults.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// --- handlers ---

// IntegrateResponse reports what an integration run did: the oracle and
// matching counters (embedded, same JSON keys as batch per-source stats)
// plus the resulting document size.
type IntegrateResponse struct {
	Mode string `json:"mode"`
	SourceStats
	// Resulting document size.
	LogicalNodes int64  `json:"logical_nodes"`
	Worlds       string `json:"worlds"`
	ChoicePoints int    `json:"choice_points"`
}

func (s *Server) handleIntegrate(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	params := r.URL.Query()
	mode := params.Get("mode")
	if mode == "" {
		mode = "merge"
	}
	resp := IntegrateResponse{Mode: mode}
	// result is this request's own resulting document — not db.Core().Tree(),
	// which a concurrent writer may have advanced past it already.
	var result *pxml.Tree
	switch mode {
	case "merge":
		other, err := xmlcodec.Decode(r.Body)
		if err != nil {
			writeError(w, statusForBodyError(err, http.StatusUnprocessableEntity), "integrate: %v", err)
			return
		}
		res, stats, err := db.Core().IntegrateTreeResult(other)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "integrate: %v", err)
			return
		}
		result = res
		resp.SourceStats = sourceStats(*stats)
	case "replace":
		tree, err := xmlcodec.Decode(r.Body)
		if err != nil {
			writeError(w, statusForBodyError(err, http.StatusUnprocessableEntity), "integrate: %v", err)
			return
		}
		if err := db.Core().ReplaceTree(tree); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "integrate: %v", err)
			return
		}
		result = tree
	default:
		writeError(w, http.StatusBadRequest, "integrate: unknown mode %q (merge | replace)", mode)
		return
	}
	resp.LogicalNodes = result.NodeCount()
	resp.Worlds = result.WorldCount().String()
	resp.ChoicePoints = result.ChoicePoints()
	writeJSON(w, http.StatusOK, resp)
}

// BatchIntegrateRequest carries multiple XML sources for one atomic batch
// integration.
type BatchIntegrateRequest struct {
	Sources []string `json:"sources"`
}

// SourceStats reports the integration counters of one source. The four
// pair counters count pairs put to the Oracle: a pair the rules' blocking
// keys rule out (two movies with different certain years) is never asked
// and is in none of them (see integrate.Stats).
type SourceStats struct {
	OracleCalls         int `json:"oracle_calls"`
	MustPairs           int `json:"must_pairs"`
	CannotPairs         int `json:"cannot_pairs"`
	UndecidedPairs      int `json:"undecided_pairs"`
	MatchingsEnumerated int `json:"matchings_enumerated"`
	MatchingsPruned     int `json:"matchings_pruned"`
	TruncatedComponents int `json:"truncated_components,omitempty"`
	// SplicedChildren counts top-level components spliced verbatim because
	// the other source never touched them (the delta-integration path).
	SplicedChildren int `json:"spliced_children,omitempty"`
}

func sourceStats(st integrate.Stats) SourceStats {
	return SourceStats{
		OracleCalls:         st.OracleCalls,
		MustPairs:           st.MustPairs,
		CannotPairs:         st.CannotPairs,
		UndecidedPairs:      st.UndecidedPairs,
		MatchingsEnumerated: st.MatchingsEnumerated,
		MatchingsPruned:     st.MatchingsPruned,
		TruncatedComponents: st.TruncatedComponents,
		SplicedChildren:     st.SplicedChildren,
	}
}

// BatchIntegrateResponse reports an atomic batch integration: per-source
// counters plus the size of the document the batch produced.
type BatchIntegrateResponse struct {
	Integrated   int           `json:"integrated"`
	Sources      []SourceStats `json:"sources"`
	LogicalNodes int64         `json:"logical_nodes"`
	Worlds       string        `json:"worlds"`
	ChoicePoints int           `json:"choice_points"`
}

// handleIntegrateBatch integrates N sources in one writer-lock cycle. The
// batch is atomic: either every source integrates and readers observe the
// final document in a single swap, or the database is left untouched.
func (s *Server) handleIntegrateBatch(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	var req BatchIntegrateRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, statusForBodyError(err, http.StatusBadRequest), "integrate/batch: bad request body: %v", err)
		return
	}
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, "integrate/batch: sources must contain at least one XML document")
		return
	}
	readers := make([]io.Reader, len(req.Sources))
	for i, src := range req.Sources {
		readers[i] = strings.NewReader(src)
	}
	statsList, result, err := db.Core().IntegrateBatchXML(readers)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "integrate/batch: %v", err)
		return
	}
	resp := BatchIntegrateResponse{
		Integrated:   len(statsList),
		Sources:      make([]SourceStats, 0, len(statsList)),
		LogicalNodes: result.NodeCount(),
		Worlds:       result.WorldCount().String(),
		ChoicePoints: result.ChoicePoints(),
	}
	for _, st := range statsList {
		resp.Sources = append(resp.Sources, sourceStats(st))
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusForBodyError maps request-body read failures (e.g. the body
// limit middleware firing) to 413, everything else to fallback.
func statusForBodyError(err error, fallback int) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

// QueryAnswer is one ranked probabilistic answer.
type QueryAnswer struct {
	Value string  `json:"value"`
	P     float64 `json:"p"`
}

// QueryResponse is a ranked, probability-annotated answer list.
type QueryResponse struct {
	Query string `json:"query"`
	// Method is the evaluation strategy used: exact, enumerate or sample
	// (the planner's choice when method=auto, the default).
	Method  string        `json:"method"`
	Answers []QueryAnswer `json:"answers"`
	// Plan explains the planner's choice; present when explain=1.
	Plan *query.Plan `json:"plan,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	params := r.URL.Query()
	src := params.Get("q")
	if src == "" {
		writeError(w, http.StatusBadRequest, "query: missing q parameter")
		return
	}
	top, err := intParam(params, "top", 0)
	if err == nil && top < 0 {
		err = fmt.Errorf("bad top parameter %q", params.Get("top"))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	opts := db.Core().DefaultQueryOptions()
	if v := params.Get("method"); v != "" {
		// auto (the default) lets the planner choose; an explicit method
		// is used verbatim. Unknown names fail option validation below.
		opts.Method = query.Method(v)
	}
	if v := params.Get("samples"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "query: bad samples parameter %q", v)
			return
		}
		// Negative counts reach option validation, which rejects them
		// with an explicit error (mapped to 400 below).
		opts.Samples = n
	}
	if v := params.Get("seed"); v != "" {
		// An explicit seed — 0 included — pins the Monte-Carlo sampler
		// for reproducible sampled answers.
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "query: bad seed parameter %q", v)
			return
		}
		opts.Seed = query.SeedPtr(n)
	}
	if v := params.Get("budget_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		// A budget the Duration cannot hold would wrap to a tiny one.
		if err != nil || n < 0 || n > math.MaxInt64/int64(time.Millisecond) {
			writeError(w, http.StatusBadRequest, "query: bad budget_ms parameter %q", v)
			return
		}
		opts.TimeBudget = time.Duration(n) * time.Millisecond
	}
	explain := false
	switch v := params.Get("explain"); v {
	case "", "0", "false":
	case "1", "true":
		explain = true
	default:
		writeError(w, http.StatusBadRequest, "query: bad explain parameter %q (0 | 1)", v)
		return
	}
	// The request context rides into evaluation: a client that hangs up
	// aborts its own query instead of leaving it computing to completion
	// (counted under /stats query.canceled).
	res, err := db.Core().QueryEvalCtx(r.Context(), src, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client is gone; 499 (nginx's "client closed request")
			// keeps access logs honest even though nobody reads the body.
			writeError(w, 499, "query: canceled: %v", err)
		case errors.Is(err, query.ErrBudgetExhausted):
			// Surface what the planner attempted: explain=1 gets the plan
			// with budget_exhausted set alongside the error.
			resp := struct {
				Error string      `json:"error"`
				Plan  *query.Plan `json:"plan,omitempty"`
			}{Error: err.Error()}
			if explain {
				resp.Plan = res.Plan
			}
			writeJSON(w, http.StatusRequestTimeout, resp)
		default:
			// Parse, option and evaluation errors name their package.
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	answers := res.Answers
	if top > 0 {
		answers = res.Top(top)
	}
	resp := QueryResponse{Query: src, Method: string(res.Method), Answers: make([]QueryAnswer, 0, len(answers))}
	for _, a := range answers {
		resp.Answers = append(resp.Answers, QueryAnswer{Value: a.Value, P: a.P})
	}
	if explain {
		resp.Plan = res.Plan
	}
	writeJSON(w, http.StatusOK, resp)
}

// FeedbackRequest is a user judgment on one query answer. Correct is a
// pointer so an omitted field is a 400 rather than a silent (and
// irreversible) "incorrect" judgment.
type FeedbackRequest struct {
	Query   string `json:"query"`
	Value   string `json:"value"`
	Correct *bool  `json:"correct"`
}

// FeedbackResponse reports the conditioning a judgment caused.
type FeedbackResponse struct {
	Query        string  `json:"query"`
	Value        string  `json:"value"`
	Judgment     string  `json:"judgment"`
	PriorP       float64 `json:"prior_p"`
	WorldsBefore string  `json:"worlds_before"`
	WorldsAfter  string  `json:"worlds_after"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	var req FeedbackRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, statusForBodyError(err, http.StatusBadRequest), "feedback: bad request body: %v", err)
		return
	}
	if req.Query == "" || req.Value == "" || req.Correct == nil {
		writeError(w, http.StatusBadRequest, "feedback: query, value and correct are required")
		return
	}
	ev, err := db.Core().Feedback(req.Query, req.Value, *req.Correct)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "feedback: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, FeedbackResponse{
		Query:        ev.Query,
		Value:        ev.Value,
		Judgment:     ev.Judgment.String(),
		PriorP:       ev.PriorP,
		WorldsBefore: ev.WorldsBefore.String(),
		WorldsAfter:  ev.WorldsAfter.String(),
	})
}

// CacheCounters is the uniform hit/miss shape of the cache sections in
// StatsResponse.
type CacheCounters struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

// IndexStats reports the summary warms of the database's commits (one per
// commit, plus the initial document) and what the current summary holds.
// Elements counts element occurrences per path — an element shared by k
// alternatives of a choice point counts k times — not distinct nodes.
type IndexStats struct {
	Builds          int64   `json:"builds"`
	LastBuildMicros float64 `json:"last_build_us"`
	TotalBuildMs    float64 `json:"total_build_ms"`
	Tags            int     `json:"tags"`
	Elements        int     `json:"elements"`
}

// DurabilityStats is the write-ahead-log and compaction section of the
// stats response.
type DurabilityStats struct {
	// LastSeq is the newest committed op; SnapshotSeq the op the on-disk
	// snapshot reflects; TailOps how many ops recovery would replay.
	LastSeq     uint64 `json:"last_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	TailOps     uint64 `json:"tail_ops"`
	// Epoch is the cluster epoch commits are stamped with.
	Epoch uint64 `json:"epoch"`
	// Segments / SizeBytes describe the live log on disk.
	Segments  int   `json:"segments"`
	SizeBytes int64 `json:"size_bytes"`
	// Appends / AppendedBytes / Rotations count log writes by this
	// process; Compactions and RecoveredOps count snapshot folds and
	// ops replayed at startup.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	Rotations     int64 `json:"rotations"`
	Compactions   int64 `json:"compactions"`
	RecoveredOps  int64 `json:"recovered_ops"`
	// SegmentLimitBytes and CompactEvery surface the tuning knobs the
	// database actually runs with (-wal-segment-bytes, -compact-every).
	SegmentLimitBytes int64 `json:"segment_limit_bytes"`
	CompactEvery      int   `json:"compact_every"`
	// StoreFormat is the on-disk snapshot format version.
	StoreFormat int `json:"store_format"`
	// StrTabEntries is the size of the live segment's interned-string
	// table (0 when the segment is fresh).
	StrTabEntries int `json:"strtab_entries"`
	// ShipStats: log pages served to followers and what reading them cost.
	catalog.ShipStats
}

func durabilityStats(db *catalog.DB) *DurabilityStats {
	st := db.Stats()
	return &DurabilityStats{
		LastSeq:           st.WAL.LastSeq,
		SnapshotSeq:       st.SnapshotSeq,
		TailOps:           st.TailOps,
		Epoch:             st.Epoch,
		Segments:          st.WAL.Segments,
		SizeBytes:         st.WAL.SizeBytes,
		Appends:           st.WAL.Appends,
		AppendedBytes:     st.WAL.AppendedBytes,
		Rotations:         st.WAL.Rotations,
		Compactions:       st.Compactions,
		RecoveredOps:      st.RecoveredOps,
		SegmentLimitBytes: st.WAL.SegmentLimitBytes,
		CompactEvery:      st.CompactEvery,
		StoreFormat:       st.StoreFormat,
		StrTabEntries:     st.WAL.StrTabEntries,
		ShipStats:         st.WAL.ShipStats,
	}
}

// StoreRuntimeStats is the process-wide zero-copy storage section of
// /stats: how arena decodes ran. A zero-copy decode leaves node strings
// as views into the heap buffer a snapshot load read, and those strings
// keep that buffer alive themselves.
type StoreRuntimeStats struct {
	ArenaDecodes  uint64 `json:"arena_decodes"`
	ArenaZeroCopy uint64 `json:"arena_zero_copy"`
	ArenaShared   uint64 `json:"arena_shared"`
}

func storeRuntimeStats() *StoreRuntimeStats {
	decodes, zeroCopy, shared := pxml.ArenaDecodeStats()
	return &StoreRuntimeStats{
		ArenaDecodes:  decodes,
		ArenaZeroCopy: zeroCopy,
		ArenaShared:   shared,
	}
}

// WireStats is the replication wire section of /stats: pages and
// snapshots served, and the bytes written for them. PayloadBytes and
// WireBytes are the same counter: the wire has no compression layer,
// and both names stay for readers of the older two-counter section.
type WireStats struct {
	Pages         int64 `json:"pages"`
	PrefixSkipped int64 `json:"prefix_skipped"`
	Snapshots     int64 `json:"snapshots"`
	PayloadBytes  int64 `json:"payload_bytes"`
	WireBytes     int64 `json:"wire_bytes"`
}

func (s *Server) wireStats() *WireStats {
	n := s.wire.bytes.Load()
	return &WireStats{
		Pages:         s.wire.pages.Load(),
		PrefixSkipped: s.wire.prefixSkipped.Load(),
		Snapshots:     s.wire.snapshots.Load(),
		PayloadBytes:  n,
		WireBytes:     n,
	}
}

// StatsResponse summarizes the document, the result cache, the summary
// warms, the history counts, and the database's durability counters.
type StatsResponse struct {
	// Database names the database the stats describe.
	Database      string        `json:"database,omitempty"`
	LogicalNodes  int64         `json:"logical_nodes"`
	PhysicalNodes int64         `json:"physical_nodes"`
	Worlds        string        `json:"worlds"`
	ChoicePoints  int           `json:"choice_points"`
	MaxDepth      int           `json:"max_depth"`
	Certain       bool          `json:"certain"`
	Integrations  int           `json:"integrations"`
	FeedbackCount int           `json:"feedback_events"`
	ResultCache   CacheCounters `json:"result_cache"`
	// Query reports query-path concurrency: in-flight evaluations,
	// early aborts (client disconnects, budget exhaustion), singleflight
	// collapses, and anchors enumerated or skipped.
	Query QueryRuntime     `json:"query"`
	Index IndexStats       `json:"index"`
	WAL   *DurabilityStats `json:"wal,omitempty"`
	// Store reports process-wide zero-copy storage counters (arena
	// decode modes); Wire the binary replication bytes served.
	Store *StoreRuntimeStats `json:"store,omitempty"`
	Wire  *WireStats         `json:"wire,omitempty"`
}

// QueryRuntime is the /stats "query" section: concurrency accounting for
// the query path.
type QueryRuntime struct {
	// Active is the number of evaluations in flight right now; Started
	// counts every evaluation ever begun.
	Active  int64 `json:"active"`
	Started int64 `json:"started"`
	// Canceled counts evaluations aborted by client disconnect (the
	// 499-style early aborts); BudgetAborts those stopped by a per-query
	// wall-time/node-visit budget.
	Canceled     int64 `json:"canceled"`
	BudgetAborts int64 `json:"budget_aborts"`
	// SingleflightCollapses counts queries that waited on an identical
	// in-flight evaluation instead of running their own.
	SingleflightCollapses int64 `json:"singleflight_collapses"`
	// AnchorsEnumerated/AnchorsSkipped sum, over the evaluations that ran,
	// the anchor subtrees whose local worlds the exact executor enumerated
	// and those it reached but skipped because no element in them can
	// carry a literal the predicates require.
	AnchorsEnumerated int64 `json:"anchors_enumerated"`
	AnchorsSkipped    int64 `json:"anchors_skipped"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	tr := db.Core().Tree()
	st := tr.CollectStats()
	resp := StatsResponse{
		LogicalNodes:  st.LogicalNodes,
		PhysicalNodes: st.PhysicalNodes,
		Worlds:        st.Worlds.String(),
		ChoicePoints:  st.ChoicePoints,
		MaxDepth:      st.MaxDepth,
		Certain:       tr.IsCertain(),
		Integrations:  db.Core().IntegrationCount(),
		FeedbackCount: db.Core().FeedbackCount(),
	}
	rs := db.Core().ResultCacheStats()
	resp.ResultCache = CacheCounters{Hits: rs.Hits, Misses: rs.Misses, Size: rs.Size, Capacity: rs.Capacity}
	qs := db.Core().QueryStats()
	resp.Query = QueryRuntime{
		Active:                qs.Active,
		Started:               qs.Started,
		Canceled:              qs.Canceled,
		BudgetAborts:          qs.BudgetAborts,
		SingleflightCollapses: rs.Collapses,
		AnchorsEnumerated:     qs.AnchorsEnumerated,
		AnchorsSkipped:        qs.AnchorsSkipped,
	}
	is := db.Core().IndexStats()
	resp.Index = IndexStats{
		Builds:          is.Builds,
		LastBuildMicros: float64(is.LastBuild.Nanoseconds()) / 1e3,
		TotalBuildMs:    float64(is.TotalBuild.Nanoseconds()) / 1e6,
		Tags:            is.Tags,
		Elements:        is.Elements,
	}
	resp.Database = db.Name()
	resp.WAL = durabilityStats(db)
	resp.Store = storeRuntimeStats()
	resp.Wire = s.wireStats()
	writeJSON(w, http.StatusOK, resp)
}

// WorldsResponse lists enumerated possible worlds.
type WorldsResponse struct {
	Total string  `json:"total_worlds"`
	Shown int     `json:"shown"`
	List  []World `json:"worlds"`
}

// World is one possible world: its probability and its root elements
// rendered as indented sketches.
type World struct {
	P        float64  `json:"p"`
	Elements []string `json:"elements"`
}

func (s *Server) handleWorlds(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	max, err := intParam(r.URL.Query(), "max", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "worlds: %v", err)
		return
	}
	if max <= 0 {
		writeError(w, http.StatusBadRequest, "worlds: max must be positive")
		return
	}
	max = min(max, DefaultMaxWorlds)
	tr := db.Core().Tree()
	resp := WorldsResponse{Total: tr.WorldCount().String(), List: []World{}}
	worlds.Enumerate(tr, func(wd worlds.World) bool {
		elems := []string{}
		for _, e := range wd.Elements {
			elems = append(elems, pxml.Sketch(e))
		}
		resp.List = append(resp.List, World{P: wd.P, Elements: elems})
		return len(resp.List) < max
	})
	resp.Shown = len(resp.List)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	w.Header().Set("Content-Type", "application/xml")
	if err := db.Core().ExportXML(w, xmlcodec.EncodeOptions{Indent: "  "}); err != nil {
		// Headers may already be out; log-and-abandon is all that's left.
		s.logf("export: %v", err)
	}
}

// SaveRequest names the snapshot to write under the database's snapshot
// directory.
type SaveRequest struct {
	Name    string `json:"name,omitempty"`
	Comment string `json:"comment,omitempty"`
}

// LoadRequest names the snapshot to restore.
type LoadRequest struct {
	Name string `json:"name,omitempty"`
}

// SnapshotResponse reports a save or load, echoing the store manifest.
// It names the snapshot only; server-side paths stay server-side.
type SnapshotResponse struct {
	Name         string `json:"name"`
	SavedAt      string `json:"saved_at"`
	LogicalNodes int64  `json:"logical_nodes"`
	Worlds       string `json:"worlds"`
	HasSchema    bool   `json:"has_schema"`
	Comment      string `json:"comment,omitempty"`
}

func manifestResponse(name string, m store.Manifest) SnapshotResponse {
	return SnapshotResponse{
		Name:         name,
		SavedAt:      m.SavedAt.Format(time.RFC3339),
		LogicalNodes: m.LogicalNodes,
		Worlds:       m.Worlds,
		HasSchema:    m.HasSchema,
		Comment:      m.Comment,
	}
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	var req SaveRequest
	if err := readJSON(r, &req); err != nil && err != io.EOF {
		writeError(w, statusForBodyError(err, http.StatusBadRequest), "save: bad request body: %v", err)
		return
	}
	// The database saves under its own snapshots/ directory; the catalog
	// validates the name.
	m, err := db.SaveNamed(req.Name, req.Comment)
	if err != nil {
		writeError(w, catalogErrStatus(err), "save: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, manifestResponse(orDefault(req.Name), m))
}

// orDefault mirrors the snapshot-name defaulting of the catalog.
func orDefault(name string) string {
	if name == "" {
		return catalog.DefaultName
	}
	return name
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request, db *catalog.DB) {
	var req LoadRequest
	if err := readJSON(r, &req); err != nil && err != io.EOF {
		writeError(w, statusForBodyError(err, http.StatusBadRequest), "load: bad request body: %v", err)
		return
	}
	snap, err := db.LoadNamed(req.Name)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, catalog.ErrBadName):
			status = http.StatusBadRequest
		case errors.Is(err, store.ErrCorrupt):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, os.ErrNotExist):
			status = http.StatusNotFound
		}
		writeError(w, status, "load: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, manifestResponse(orDefault(req.Name), snap.Manifest))
}

// --- catalog management ---

// DBInfo is one database in the /dbs listing.
type DBInfo struct {
	Name         string           `json:"name"`
	LogicalNodes int64            `json:"logical_nodes"`
	Worlds       string           `json:"worlds"`
	Integrations int              `json:"integrations"`
	Feedback     int              `json:"feedback_events"`
	WAL          *DurabilityStats `json:"wal,omitempty"`
}

// DBListResponse is the /dbs body.
type DBListResponse struct {
	Databases []DBInfo `json:"databases"`
}

// CreateDBResponse reports a created database.
type CreateDBResponse struct {
	Name string `json:"name"`
}

// DropDBResponse reports a dropped database.
type DropDBResponse struct {
	Dropped string `json:"dropped"`
}

func (s *Server) handleListDBs(w http.ResponseWriter, r *http.Request) {
	resp := DBListResponse{Databases: []DBInfo{}}
	for _, db := range s.cat.List() {
		c := db.Core()
		tr := c.Tree()
		resp.Databases = append(resp.Databases, DBInfo{
			Name:         db.Name(),
			LogicalNodes: tr.NodeCount(),
			Worlds:       tr.WorldCount().String(),
			Integrations: c.IntegrationCount(),
			Feedback:     c.FeedbackCount(),
			WAL:          durabilityStats(db),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateDB(w http.ResponseWriter, r *http.Request) {
	if s.isReadOnly() {
		s.writeReadOnly(w, "create db")
		return
	}
	name := r.PathValue("name")
	if _, err := s.cat.Create(name); err != nil {
		writeError(w, catalogErrStatus(err), "create db: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateDBResponse{Name: name})
}

func (s *Server) handleDropDB(w http.ResponseWriter, r *http.Request) {
	if s.isReadOnly() {
		s.writeReadOnly(w, "drop db")
		return
	}
	name := r.PathValue("name")
	if err := s.cat.Drop(name); err != nil {
		writeError(w, catalogErrStatus(err), "drop db: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DropDBResponse{Dropped: name})
}

// --- helpers ---

func intParam(params url.Values, name string, def int) (int, error) {
	v := params.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", name, v)
	}
	return n, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}
