// Package replica implements the follower half of IMPrECISE's
// log-shipping replication. A Replica owns a local follower catalog (its
// own data directory, write-ahead logs and compactor) and keeps it
// converged with a primary server over plain HTTP:
//
//   - membership: the primary's database set is polled via GET
//     /replication; local databases are created (bootstrapped from a
//     snapshot) or dropped to match.
//   - bootstrap: a database joins via GET /dbs/{name}/snapshot — the
//     primary state at a known log position, installed through the v2
//     store format (catalog.InstallSnapshot) so it is durable before a
//     single op streams.
//   - tailing: each database long-polls GET /dbs/{name}/wal?since=
//     from its own durable lastApplied and applies the shipped ops
//     through catalog.DB.ApplyReplicated — journaled-then-swapped, so a
//     kill -9 at any instant resumes exactly where the log ends, with
//     re-delivered ops skipped idempotently.
//   - divergence: a 410 from the primary (position compacted away or
//     beyond its log) or a digest mismatch once caught up resets the
//     database from a fresh snapshot.
//
// Failures never kill the loop: every fetch retries with exponential
// backoff, and the replica keeps serving reads from its last converged
// state throughout.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/dtd"
)

// Options configure a Replica.
type Options struct {
	// Primary is the base URL of the primary server (e.g.
	// "http://primary:8080"). Required.
	Primary string
	// Catalog configures the local follower catalog. Its Config must
	// match the primary's (schema, rules, integration settings): shipped
	// ops are re-executed locally, and determinism across the pair is
	// what makes log shipping converge.
	Catalog catalog.Options
	// Client performs the HTTP requests (nil: a default client; it must
	// not carry a global timeout shorter than PollWait).
	Client *http.Client
	// PollWait is the long-poll wait requested from the primary per WAL
	// fetch (0 means 10s).
	PollWait time.Duration
	// MembershipEvery is the primary database-set poll interval (0 means
	// 3s).
	MembershipEvery time.Duration
	// MinBackoff and MaxBackoff bound the exponential retry backoff after
	// fetch or apply failures (0 means 100ms / 5s).
	MinBackoff, MaxBackoff time.Duration
	// Logger receives bootstrap, divergence and error notes; nil disables.
	Logger *log.Logger
}

// DBStatus is the replication state of one followed database.
type DBStatus struct {
	Name string `json:"name"`
	// Epoch is the cluster epoch the local database commits under.
	Epoch uint64 `json:"epoch"`
	// LastApplied is the follower's durable log position; PrimarySeq the
	// primary's position as of the last contact; Lag their distance.
	LastApplied uint64 `json:"last_applied"`
	PrimarySeq  uint64 `json:"primary_seq"`
	Lag         uint64 `json:"lag"`
	CaughtUp    bool   `json:"caught_up"`
	// OpsApplied counts ops applied by this process (not recovery);
	// SnapshotsInstalled counts bootstraps; Divergences counts digest
	// mismatches that forced one.
	OpsApplied         int64  `json:"ops_applied"`
	SnapshotsInstalled int64  `json:"snapshots_installed"`
	Divergences        int64  `json:"divergences"`
	LastError          string `json:"last_error,omitempty"`
}

// Status is a replica's overall replication state (served by the replica
// server under GET /replication).
type Status struct {
	Primary string `json:"primary"`
	// Epoch is the follower catalog's cluster epoch.
	Epoch       uint64     `json:"epoch"`
	Connected   bool       `json:"connected"`
	LastContact time.Time  `json:"last_contact,omitzero"`
	LastError   string     `json:"last_error,omitempty"`
	Databases   []DBStatus `json:"databases"`
}

// errGone marks a 410 from the primary: the requested log position is not
// incrementally servable and the follower must resynchronize.
var errGone = errors.New("replica: log position gone on primary")

// Replica is a live follower: a local catalog plus the sync loops keeping
// it converged with a primary.
type Replica struct {
	opts    Options
	primary string
	client  *http.Client
	cat     *catalog.Catalog

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	tailers     map[string]*tailer
	connected   bool
	lastContact time.Time
	lastErr     string
	stopped     bool
}

// tailer is the per-database sync goroutine's handle and status. Its
// context is derived from the replica's and canceled when the database
// leaves the primary, so a drop interrupts even an in-flight long-poll.
type tailer struct {
	name   string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	st     DBStatus // guarded by Replica.mu
	// tab is the string table the wal2 page stream of primary tabFrom
	// left behind after record tabSeq: the prefix of the page that
	// continues there, named in that request (tab=) so that the primary
	// need not send it again. The tailer's own goroutine only.
	tab     codec.StrTab
	tabSeq  uint64
	tabFrom string
}

// Open opens (creating if needed) the follower catalog rooted at dir —
// recovering every database from its snapshot and write-ahead tail, like
// any catalog open — and starts synchronizing it with the primary.
func Open(dir string, opts Options) (*Replica, error) {
	if opts.Primary == "" {
		return nil, errors.New("replica: primary URL required")
	}
	u, err := url.Parse(opts.Primary)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("replica: invalid primary URL %q (want http[s]://host[:port])", opts.Primary)
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 10 * time.Second
	}
	if opts.MembershipEvery <= 0 {
		opts.MembershipEvery = 3 * time.Second
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	cat, err := catalog.Open(dir, opts.Catalog)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		opts:    opts,
		primary: normalizeBase(opts.Primary),
		client:  client,
		cat:     cat,
		tailers: map[string]*tailer{},
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.wg.Add(1)
	go r.membershipLoop()
	return r, nil
}

// normalizeBase strips a trailing slash so path joins stay canonical.
func normalizeBase(u string) string {
	for len(u) > 1 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// Catalog returns the follower catalog the replica serves reads from.
func (r *Replica) Catalog() *catalog.Catalog { return r.cat }

// Primary returns the base URL of the node currently followed. It can
// change at runtime: when the followed node reports it was itself
// demoted (or is a replica pointing elsewhere), the membership loop
// chases its primary pointer.
func (r *Replica) Primary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// repoint swaps the followed URL after the current one disclosed a newer
// primary.
func (r *Replica) repoint(u string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.primary = u
}

// StopSync permanently stops the membership and tailer loops, leaving
// the follower catalog open and exactly at the durable lastApplied of
// every database. It is the first half of promotion: the catalog stops
// following before it starts leading. Safe to call more than once.
func (r *Replica) StopSync() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}

// Close stops the sync loops and closes the follower catalog. The
// on-disk state stays exactly at the durable lastApplied of every
// database; a later Open resumes tailing from there.
func (r *Replica) Close() error {
	r.StopSync()
	return r.cat.Close()
}

// Status snapshots the replica's replication state: one row per database
// the primary lists, sorted by name, whether or not its bootstrap has
// succeeded yet — a database whose bootstrap keeps failing shows up with
// its last error.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Primary:     r.primary,
		Epoch:       r.cat.Epoch(),
		Connected:   r.connected,
		LastContact: r.lastContact,
		LastError:   r.lastErr,
		Databases:   []DBStatus{},
	}
	for _, name := range slices.Sorted(maps.Keys(r.tailers)) {
		st.Databases = append(st.Databases, r.tailers[name].st)
	}
	return st
}

// WaitCaughtUp fetches the primary's positions once and blocks until the
// local catalog has every primary database applied at least that far (or
// ctx ends). It is the test and scripting barrier for "the follower has
// converged on everything committed before this call".
func (r *Replica) WaitCaughtUp(ctx context.Context) error {
	ps, err := r.fetchPrimaryStatus(ctx)
	if err != nil {
		return err
	}
	for {
		behind := ""
		for _, pdb := range ps.Databases {
			// Two watermarks: LastSeq is the durable journal position
			// (advanced by the append under ApplyOp), AppliedSeq the last
			// swap actually published to readers. The append lands first, so
			// checking LastSeq alone could declare "caught up" inside the
			// journaled-but-not-yet-visible window of the final op.
			db, err := r.cat.Get(pdb.Name)
			if err != nil || db.LastSeq() < pdb.LastSeq || db.Core().AppliedSeq() < pdb.LastSeq {
				behind = pdb.Name
				break
			}
		}
		if behind == "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: %w waiting for %q to catch up", ctx.Err(), behind)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// --- membership ---

// membershipLoop keeps the local database set matching the primary's,
// starting a tailer per primary database and dropping local databases the
// primary no longer has.
func (r *Replica) membershipLoop() {
	defer r.wg.Done()
	backoff := r.opts.MinBackoff
	for {
		ps, err := r.fetchPrimaryStatus(r.ctx)
		if err != nil {
			r.noteDisconnect(err)
			if !r.sleep(backoff) {
				return
			}
			backoff = r.growBackoff(backoff)
			continue
		}
		backoff = r.opts.MinBackoff
		r.reconcile(ps)
		if !r.sleep(r.opts.MembershipEvery) {
			return
		}
	}
}

// reconcile applies one primary membership observation.
func (r *Replica) reconcile(ps *PrimaryStatus) {
	want := map[string]bool{}
	for _, pdb := range ps.Databases {
		want[pdb.Name] = true
	}
	r.mu.Lock()
	r.connected = true
	r.lastContact = time.Now()
	r.lastErr = ""
	for _, pdb := range ps.Databases {
		if t, ok := r.tailers[pdb.Name]; ok {
			// Refresh positions for running tailers too: their own WAL
			// poll may be parked long-polling an idle primary, and the
			// membership report is just as authoritative about lag.
			if db, err := r.cat.Get(pdb.Name); err == nil {
				t.st.LastApplied = db.LastSeq()
				t.st.Epoch = db.Epoch()
			}
			if pdb.LastSeq > t.st.PrimarySeq {
				t.st.PrimarySeq = pdb.LastSeq
			}
			t.st.Lag = 0
			if t.st.PrimarySeq > t.st.LastApplied {
				t.st.Lag = t.st.PrimarySeq - t.st.LastApplied
			}
			t.st.CaughtUp = t.st.Lag == 0
			continue
		}
		ctx, cancel := context.WithCancel(r.ctx)
		t := &tailer{
			name:   pdb.Name,
			ctx:    ctx,
			cancel: cancel,
			done:   make(chan struct{}),
			st:     DBStatus{Name: pdb.Name, PrimarySeq: pdb.LastSeq},
		}
		r.tailers[pdb.Name] = t
		r.wg.Add(1)
		go r.runTailer(t)
	}
	var dropped []*tailer
	for name, t := range r.tailers {
		if !want[name] {
			delete(r.tailers, name)
			dropped = append(dropped, t)
		}
	}
	r.mu.Unlock()
	for _, t := range dropped {
		t.cancel()
		<-t.done
		if err := r.cat.Drop(t.name); err != nil && !errors.Is(err, catalog.ErrNotFound) {
			r.logf("replica: dropping %s: %v", t.name, err)
		} else {
			r.logf("replica: dropped %s (no longer on primary)", t.name)
		}
	}
	// Local leftovers with no tailer (e.g. from a previous run against a
	// different primary) are dropped too: the primary's set is the truth.
	for _, name := range r.cat.Names() {
		r.mu.Lock()
		_, tracked := r.tailers[name]
		r.mu.Unlock()
		if !tracked && !want[name] {
			if err := r.cat.Drop(name); err == nil {
				r.logf("replica: dropped local-only database %s", name)
			}
		}
	}
}

func (r *Replica) noteDisconnect(err error) {
	r.mu.Lock()
	r.connected = false
	r.lastErr = err.Error()
	r.mu.Unlock()
}

// --- per-database tailing ---

// runTailer is the sync loop of one database: bootstrap if missing, then
// long-poll tail, with backoff on errors and snapshot resync on gaps or
// divergence.
func (r *Replica) runTailer(t *tailer) {
	defer r.wg.Done()
	defer close(t.done)
	defer t.cancel()
	backoff := r.opts.MinBackoff
	for {
		if t.ctx.Err() != nil {
			return
		}
		err := r.tailOnce(t)
		if err == nil {
			backoff = r.opts.MinBackoff
			continue
		}
		if t.ctx.Err() != nil {
			return
		}
		r.setDBError(t, err)
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = r.growBackoff(backoff)
	}
}

// tailOnce performs one fetch-and-apply round for t's database.
func (r *Replica) tailOnce(t *tailer) error {
	db, err := r.cat.Get(t.name)
	if errors.Is(err, catalog.ErrNotFound) {
		db, err = r.bootstrap(t)
	}
	if err != nil {
		return err
	}
	since := db.LastSeq()
	localEpoch := db.Epoch()
	page, err := r.fetchWAL(t, since, localEpoch)
	if errors.Is(err, errGone) {
		// The primary compacted past us, or reset below us: full resync.
		r.logf("replica: %s: position %d gone on primary, resynchronizing from snapshot", t.name, since)
		_, err = r.bootstrap(t)
		return err
	}
	if err != nil {
		return err
	}
	if page.Epoch < localEpoch {
		// The serving node is a deposed primary still answering under its
		// old term. Nothing it says may land here — and crucially this
		// must NOT trigger a snapshot resync, which would overwrite
		// promoted state with stale state. Fail the round and retry; the
		// stale node steps down once it learns of the new epoch.
		return fmt.Errorf("%w: %s: page at epoch %d, local epoch is %d", catalog.ErrStaleEpoch, t.name, page.Epoch, localEpoch)
	}
	applied := int64(0)
	for _, rec := range page.Records {
		ok, err := db.ApplyReplicated(rec)
		if errors.Is(err, catalog.ErrReplicaGap) {
			r.logf("replica: %s: %v, resynchronizing from snapshot", t.name, err)
			_, err = r.bootstrap(t)
			return err
		}
		if err != nil {
			return err
		}
		if ok {
			applied++
		}
	}
	last := db.LastSeq()
	r.mu.Lock()
	t.st.LastApplied = last
	t.st.Epoch = db.Epoch()
	t.st.PrimarySeq = page.LastSeq
	t.st.Lag = 0
	if page.LastSeq > last {
		t.st.Lag = page.LastSeq - last
	}
	t.st.CaughtUp = t.st.Lag == 0
	t.st.OpsApplied += applied
	t.st.LastError = ""
	r.lastContact = time.Now()
	r.mu.Unlock()
	// Only a caught-up follower can compare digests: the pair
	// (page.LastSeq, page.Digest) is consistent, so at equal positions
	// the trees must be structurally identical.
	if last == page.LastSeq && page.Digest != "" {
		if local := DigestString(db.Core().Tree()); local != page.Digest {
			r.mu.Lock()
			t.st.Divergences++
			r.mu.Unlock()
			r.logf("replica: %s: DIVERGED at seq %d (local digest %s, primary %s), resynchronizing from snapshot",
				t.name, last, local, page.Digest)
			_, err := r.bootstrap(t)
			return err
		}
	}
	return nil
}

// bootstrap installs a fresh primary snapshot for t's database — the join
// and divergence-recovery path.
func (r *Replica) bootstrap(t *tailer) (*catalog.DB, error) {
	t.tabFrom = "" // whatever comes next continues no page stream
	payload, err := r.fetchSnapshot(t.ctx, t.name)
	if err != nil {
		return nil, err
	}
	// Never install a snapshot from an older epoch than anything this
	// catalog already holds: a deposed primary's state must not replace a
	// promoted one's, even through the resync path.
	if local := r.cat.Epoch(); payload.Epoch < local {
		return nil, fmt.Errorf("%w: %s: snapshot at epoch %d, local epoch is %d", catalog.ErrStaleEpoch, t.name, payload.Epoch, local)
	}
	tree := payload.Tree
	var schema *dtd.Schema
	if payload.Schema != "" {
		schema, err = dtd.ParseString(payload.Schema)
		if err != nil {
			return nil, fmt.Errorf("replica: %s: bad snapshot schema: %w", t.name, err)
		}
	}
	db, err := r.cat.InstallSnapshot(t.name, catalog.BootstrapSnapshot{
		Seq:          payload.Seq,
		Epoch:        payload.Epoch,
		Tree:         tree,
		Schema:       schema,
		Integrations: payload.Integrations,
		Feedback:     payload.Feedback,
		Comment:      "replicated from " + r.Primary(),
	})
	if err != nil {
		return nil, err
	}
	if payload.Digest != "" {
		if local := DigestString(db.Core().Tree()); local != payload.Digest {
			return nil, fmt.Errorf("replica: %s: installed snapshot digest %s does not match primary %s",
				t.name, local, payload.Digest)
		}
	}
	r.mu.Lock()
	t.st.SnapshotsInstalled++
	t.st.LastApplied = payload.Seq
	t.st.Epoch = db.Epoch()
	if t.st.PrimarySeq < payload.Seq {
		t.st.PrimarySeq = payload.Seq
	}
	t.st.Lag = t.st.PrimarySeq - t.st.LastApplied
	t.st.CaughtUp = t.st.Lag == 0
	r.mu.Unlock()
	r.logf("replica: %s: installed snapshot at seq %d (%d node(s))", t.name, payload.Seq, tree.NodeCount())
	return db, nil
}

func (r *Replica) setDBError(t *tailer, err error) {
	r.mu.Lock()
	t.st.LastError = err.Error()
	r.mu.Unlock()
	r.logf("replica: %s: %v", t.name, err)
}

// --- HTTP plumbing ---

// fetchPrimaryStatus reads the primary's role and database positions.
func (r *Replica) fetchPrimaryStatus(ctx context.Context) (*PrimaryStatus, error) {
	var ps PrimaryStatus
	if err := r.getJSON(ctx, "/replication", nil, 30*time.Second, &ps); err != nil {
		return nil, err
	}
	// Only a catalog-mode primary is an acceptable sync source. Anything
	// else must fail the round, NOT return an empty database set:
	// reconcile treats the primary's set as authoritative and would drop
	// every local follower database over a transient misconfiguration
	// (e.g. the primary restarted without -data). A followed node that
	// stopped being the primary but discloses its successor (a demoted
	// ex-primary, or a replica that was promoted elsewhere) re-points this
	// follower at the successor; the next round syncs from there.
	switch ps.Role {
	case "primary":
	case "demoted":
		// The followed node was deposed and discloses its successor: chase
		// the pointer so surviving followers converge on the new primary.
		// A plain "replica" role deliberately does NOT re-point — chaining
		// followers off healthy replicas stays an error, so replication
		// trees remain rooted at primaries.
		if ps.Primary != "" && normalizeBase(ps.Primary) != r.Primary() {
			next := normalizeBase(ps.Primary)
			r.logf("replica: %s reports role %q, re-pointing at its primary %s", r.Primary(), ps.Role, next)
			r.repoint(next)
			return nil, fmt.Errorf("replica: followed node stepped down, now following %s", next)
		}
		return nil, fmt.Errorf("replica: primary %s was demoted and names no successor — wait or re-point manually", r.Primary())
	case "replica":
		return nil, fmt.Errorf("replica: primary %s is itself a %s of another node — chain followers off primaries only", r.Primary(), ps.Role)
	default:
		return nil, fmt.Errorf("replica: %s reports role %q — a follower needs a catalog-mode primary (serve -data)", r.Primary(), ps.Role)
	}
	return &ps, nil
}

// fetchWAL long-polls one page of the primary's op log past since. The
// follower's own epoch rides along so a deposed primary learns of its
// deposition from the very followers it tries to keep shipping to. So
// does the mark of t.tab if this page continues the stream the table
// came from — which only a decoded page does: after an error the next
// request starts from an empty table.
func (r *Replica) fetchWAL(t *tailer, since, epoch uint64) (*WALPage, error) {
	primary := r.Primary()
	if t.tabSeq != since || t.tabFrom != primary {
		t.tab.Reset()
	}
	t.tabFrom = ""
	q := url.Values{
		"since": {strconv.FormatUint(since, 10)},
		"wait":  {strconv.FormatInt(r.opts.PollWait.Milliseconds(), 10)},
		"epoch": {strconv.FormatUint(epoch, 10)},
	}
	if t.tab.Len() > 0 {
		q.Set("tab", t.tab.Mark().String())
	}
	path := "/dbs/" + url.PathEscape(t.name) + "/wal"
	resp, cancel, err := r.get(t.ctx, path, q, r.opts.PollWait+15*time.Second, ContentType)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	page, err := DecodeWALPageFrom(resp.Body, &t.tab)
	if err != nil {
		return nil, err
	}
	t.tabSeq, t.tabFrom = since+uint64(len(page.Records)), primary
	return page, nil
}

// fetchSnapshot reads the primary's full state for one database.
func (r *Replica) fetchSnapshot(ctx context.Context, name string) (*SnapshotPayload, error) {
	path := "/dbs/" + url.PathEscape(name) + "/snapshot"
	resp, cancel, err := r.get(ctx, path, nil, 60*time.Second, ContentType)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	return DecodeSnapshot(resp.Body)
}

// getJSON performs one GET against the primary and decodes the JSON
// body, mapping 410 to errGone and other non-200s to descriptive errors.
func (r *Replica) getJSON(ctx context.Context, path string, q url.Values, timeout time.Duration, v any) error {
	resp, cancel, err := r.get(ctx, path, q, timeout, "")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// get performs one GET against the primary, mapping 410 to errGone and
// other non-200s to descriptive errors. A non-empty accept is sent as the
// Accept header and is the only Content-Type the reply may carry: a
// primary that answers anything else (say, a JSON page from a build that
// predates the wal2 wire) fails the round, and nothing it sent is read.
// On success the caller owns the body and must invoke cancel (the request
// timeout's) after draining it.
func (r *Replica) get(ctx context.Context, path string, q url.Values, timeout time.Duration, accept string) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	u := r.Primary() + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("%w (%s)", errGone, path)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("replica: GET %s: %s: %s", path, resp.Status, firstLine(body))
	}
	if ct := resp.Header.Get("Content-Type"); accept != "" && ct != accept {
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("replica: GET %s: primary answered Content-Type %q, this follower reads only %s", path, ct, accept)
	}
	return resp, cancel, nil
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// --- loop helpers ---

// sleep waits d or until the replica closes; false means closing.
func (r *Replica) sleep(d time.Duration) bool {
	select {
	case <-r.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (r *Replica) growBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > r.opts.MaxBackoff {
		d = r.opts.MaxBackoff
	}
	return d
}

func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logger != nil {
		r.opts.Logger.Printf(format, args...)
	}
}
