// Package catalog turns the single in-memory core.Database into a
// durable multi-database engine — the role a real deployment needs the
// moment one process serves more than one collection (the paper's
// prototype leaned on MonetDB/XQuery for exactly this). A Catalog owns a
// data directory of named databases:
//
//	<data>/<name>/state/          snapshot written by compaction (store v6)
//	<data>/<name>/wal/seg-*.log   per-database write-ahead op log
//	<data>/<name>/snapshots/<n>/  user-named snapshots (/save, /load)
//
// Every mutation a database commits is first recorded in its write-ahead
// log (CRC-framed, fsynced — see wal.go) via the core journal hook, so a
// crash at any instant loses nothing committed: opening the catalog loads
// each database's latest snapshot and deterministically replays the log
// tail beyond it. A background compactor periodically folds the log into
// a fresh snapshot and drops the obsolete segments.
package catalog

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/xmlcodec"
)

const (
	stateDirName     = "state"
	snapshotsDirName = "snapshots"

	// DefaultName names the snapshot SaveNamed and LoadNamed use when
	// given no name.
	DefaultName = "default"
	// DefaultCompactEvery triggers compaction after this many journaled
	// ops since the last snapshot.
	DefaultCompactEvery = 64
)

// ErrNotFound is returned when a named database does not exist.
var ErrNotFound = errors.New("catalog: database not found")

// ErrExists is returned when creating a database that already exists.
var ErrExists = errors.New("catalog: database already exists")

// ErrBadName is returned for database or snapshot names that are empty or
// would escape the data directory.
var ErrBadName = errors.New("catalog: invalid name")

// Options configure a Catalog.
type Options struct {
	// Config is the core configuration every database is opened with
	// (schema knowledge, oracle rules, query defaults, caches). A schema
	// stored in a database's snapshot overrides Config.Schema on
	// recovery, mirroring core.LoadSnapshot.
	Config core.Config
	// RootTag is the root element of a freshly created database's empty
	// document ("db" when empty). The initial document is pinned into the
	// database's first snapshot at creation, so changing RootTag later
	// only affects databases created afterwards.
	RootTag string
	// SegmentBytes rotates write-ahead segments (0 means
	// DefaultSegmentBytes).
	SegmentBytes int64
	// CompactEvery is the number of journaled ops between background
	// compactions (0 means DefaultCompactEvery; negative disables all
	// automatic compaction, including the final one at Close — only
	// explicit DB.Compact calls write snapshots then).
	CompactEvery int
	// Logger receives recovery and compaction notes; nil disables.
	Logger *log.Logger
}

// Catalog is a data directory of named, durable databases.
type Catalog struct {
	dir    string
	opts   Options
	unlock func() // releases the data-directory flock

	mu     sync.Mutex
	dbs    map[string]*DB
	closed bool
	// epoch is the highest cluster epoch this catalog has witnessed; new
	// databases are seeded with it so every database in the catalog always
	// commits under the same fencing term.
	epoch uint64
}

// DB is one named database: a core.Database wired to its write-ahead log
// and compactor.
type DB struct {
	name string
	dir  string
	core *core.Database
	wal  *wal
	opts Options

	// replMu serializes replicated applies (ApplyReplicated), so a
	// follower's stream keeps its sequence check and journal append
	// atomic with respect to other replicated ops.
	replMu sync.Mutex
	// commitMu guards commitCh, the broadcast channel long-poll tailers
	// (WaitRawOps) block on; it is closed and replaced on every durable
	// append.
	commitMu sync.Mutex
	commitCh chan struct{}

	// compactMu serializes compactions (manual and background).
	compactMu sync.Mutex
	// opsSinceCompact triggers the background compactor.
	opsSinceCompact atomic.Int64
	compactCh       chan struct{}
	done            chan struct{}
	wg              sync.WaitGroup

	compactions   atomic.Int64
	snapshotSeq   atomic.Uint64 // journal seq the state/ snapshot reflects
	snapshotEpoch atomic.Uint64 // epoch the state/ snapshot manifest carries
	recoveredOps  int64         // ops replayed at open (immutable after)
}

// Open opens (creating if needed) the catalog rooted at dir, recovering
// every database found inside: latest snapshot, then the write-ahead
// tail, truncating torn records.
func Open(dir string, opts Options) (*Catalog, error) {
	if opts.RootTag == "" {
		opts.RootTag = "db"
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One process per data directory: concurrent appenders would corrupt
	// the logs. The advisory lock dies with the process, so a kill never
	// blocks the next open.
	unlock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir, opts: opts, unlock: unlock, dbs: map[string]*DB{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		unlock()
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || validateName(e.Name()) != nil {
			continue
		}
		db, err := c.openDB(e.Name(), 0)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("catalog: recovering %q: %w", e.Name(), err)
		}
		c.dbs[e.Name()] = db
		if e := db.Epoch(); e > c.epoch {
			c.epoch = e
		}
	}
	return c, nil
}

// Dir returns the catalog's data directory.
func (c *Catalog) Dir() string { return c.dir }

// validateName admits simple path-safe names: no separators, no dot
// navigation, not empty, not absurdly long.
func validateName(name string) error {
	if name == "" || len(name) > 128 || name == "." || name == ".." ||
		name != filepath.Base(name) || strings.ContainsAny(name, `/\`) ||
		strings.HasPrefix(name, ".") || name == "LOCK" {
		// "LOCK" is the catalog's own flock file at the top of the data
		// directory; as a database name it would collide with it.
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// openDB recovers (or freshly initializes) one database directory.
// seedEpoch is the cluster epoch a freshly created database starts in
// (pinned into its initial manifest); an existing database's epoch comes
// from its own manifest and log instead.
func (c *Catalog) openDB(name string, seedEpoch uint64) (*DB, error) {
	dbDir := filepath.Join(c.dir, name)
	if err := os.MkdirAll(dbDir, 0o755); err != nil {
		return nil, err
	}
	cfg := c.opts.Config
	var (
		cdb       *core.Database
		after     uint64
		snapEpoch uint64
		snapshot  = filepath.Join(dbDir, stateDirName)
	)
	_, statErr := os.Stat(filepath.Join(snapshot, "manifest.json"))
	if statErr != nil && !os.IsNotExist(statErr) {
		return nil, statErr
	}
	if statErr == nil {
		snap, err := store.Load(snapshot)
		if err != nil {
			return nil, err
		}
		if snap.Schema != nil {
			cfg.Schema = snap.Schema
		}
		cdb, err = core.Open(snap.Tree, cfg)
		if err != nil {
			return nil, err
		}
		cdb.RestoreHistories(int(snap.Manifest.Integrations), snap.Manifest.Feedback)
		after = snap.Manifest.LogSeq
		snapEpoch = snap.Manifest.Epoch
	} else {
		empty, err := xmlcodec.DecodeString("<" + c.opts.RootTag + "/>")
		if err != nil {
			return nil, fmt.Errorf("catalog: bad root tag %q: %w", c.opts.RootTag, err)
		}
		cdb, err = core.Open(empty, cfg)
		if err != nil {
			return nil, err
		}
		// Pin the initial document on disk (snapshot at log position 0)
		// so recovery never depends on the RootTag option staying stable
		// across restarts.
		if _, err := store.SaveWith(snapshot, empty, cfg.Schema, store.SaveOptions{
			Comment: "initial state of " + name,
			Epoch:   seedEpoch,
		}); err != nil {
			return nil, err
		}
		snapEpoch = seedEpoch
	}
	recovered := int64(0)
	w, err := recoverWAL(filepath.Join(dbDir, walDirName), c.opts.SegmentBytes, after, snapEpoch, func(e WALRecord) error {
		recovered++
		return cdb.ApplyOp(e.Op)
	})
	if err != nil {
		return nil, err
	}
	d := &DB{
		name:         name,
		dir:          dbDir,
		core:         cdb,
		wal:          w,
		opts:         c.opts,
		commitCh:     make(chan struct{}),
		compactCh:    make(chan struct{}, 1),
		done:         make(chan struct{}),
		recoveredOps: recovered,
	}
	d.snapshotSeq.Store(after)
	d.snapshotEpoch.Store(snapEpoch)
	// The watermark the journal resumes from: everything on disk is now
	// reflected in the tree.
	last := w.stats().LastSeq
	cdb.SetJournal(d, last)
	d.opsSinceCompact.Store(int64(last - d.snapshotSeq.Load()))
	if recovered > 0 && c.opts.Logger != nil {
		c.opts.Logger.Printf("catalog: %s: recovered %d op(s) from the write-ahead log (seq %d)", name, recovered, last)
	}
	d.wg.Add(1)
	go d.compactLoop()
	return d, nil
}

// Record implements core.Journal: append the op durably, wake long-poll
// tailers, then poke the compactor when the log tail has grown enough.
func (d *DB) Record(op core.Op) (uint64, error) {
	seq, err := d.wal.append(op)
	if err != nil {
		return 0, err
	}
	d.notifyCommit()
	if d.opts.CompactEvery > 0 && d.opsSinceCompact.Add(1) >= int64(d.opts.CompactEvery) {
		select {
		case d.compactCh <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// compactLoop is the background compactor goroutine.
func (d *DB) compactLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case <-d.compactCh:
			if err := d.Compact(); err != nil && d.opts.Logger != nil {
				d.opts.Logger.Printf("catalog: %s: compaction: %v", d.name, err)
			}
		}
	}
}

// Compact folds the committed log into a fresh snapshot and drops the
// now-redundant segments. Safe to call at any time; concurrent mutations
// keep committing to the log while the snapshot is written.
func (d *DB) Compact() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	// Read the epoch before the view: if a promotion raises it mid-save
	// the manifest understates the epoch, which recovery repairs (it takes
	// the max of manifest and log), whereas overstating could fence out
	// records legitimately committed under the older epoch.
	epoch := d.wal.currentEpoch()
	v := d.core.View()
	if v.Seq <= d.snapshotSeq.Load() && epoch <= d.snapshotEpoch.Load() {
		// Nothing journaled and no epoch raise since the last snapshot
		// (the initial one written at creation covers sequence 0).
		return nil
	}
	_, err := store.SaveWith(filepath.Join(d.dir, stateDirName), v.Tree, v.Schema, store.SaveOptions{
		Comment:      fmt.Sprintf("compaction of %s", d.name),
		LogSeq:       v.Seq,
		Epoch:        epoch,
		Integrations: v.Integrations,
		Feedback:     v.Events,
	})
	if err != nil {
		return err
	}
	d.snapshotSeq.Store(v.Seq)
	d.snapshotEpoch.Store(epoch)
	d.compactions.Add(1)
	d.opsSinceCompact.Store(0)
	_, err = d.wal.dropThrough(v.Seq)
	return err
}

// close stops the compactor and releases the log. With compact, a final
// compaction makes the next open replay-free; failures are non-fatal
// (recovery replays the tail instead). Callers skip it when compaction
// is disabled (inspection tools rely on a close that never rewrites
// state) or when the directory is about to be deleted anyway.
func (d *DB) close(compact bool) error {
	close(d.done)
	d.wg.Wait()
	if compact && d.opts.CompactEvery > 0 {
		if err := d.Compact(); err != nil && d.opts.Logger != nil {
			d.opts.Logger.Printf("catalog: %s: final compaction: %v", d.name, err)
		}
	}
	return d.wal.close()
}

// Name returns the database's name.
func (d *DB) Name() string { return d.name }

// Epoch reports the cluster epoch this database commits under.
func (d *DB) Epoch() uint64 { return d.wal.currentEpoch() }

// RaiseEpoch lifts the database's epoch to e and durably persists the
// raise (a snapshot manifest carrying the new epoch) before returning,
// so a promoted node can never be re-fenced backwards by a crash.
// Epochs only rise; e at or below the current epoch is a no-op.
func (d *DB) RaiseEpoch(e uint64) error {
	if !d.wal.raiseEpoch(e) {
		return nil
	}
	return d.Compact()
}

// Core returns the underlying core.Database. All mutations performed on
// it are journaled through the catalog's write-ahead log.
func (d *DB) Core() *core.Database { return d.core }

// Stats reports the durability counters of this database.
type DBStats struct {
	WAL WALStats `json:"wal"`
	// Epoch is the cluster epoch new commits are stamped with.
	Epoch uint64 `json:"epoch"`
	// SnapshotSeq is the journal sequence the on-disk snapshot reflects;
	// TailOps is how many committed ops recovery would replay right now.
	SnapshotSeq  uint64 `json:"snapshot_seq"`
	TailOps      uint64 `json:"tail_ops"`
	Compactions  int64  `json:"compactions"`
	RecoveredOps int64  `json:"recovered_ops"`
	// StoreFormat is the snapshot format version on disk, the only one
	// this build reads and writes.
	StoreFormat int `json:"store_format"`
	// CompactEvery is the configured ops-between-compactions knob
	// (negative: automatic compaction disabled).
	CompactEvery int `json:"compact_every"`
}

// Stats reports the database's write-ahead-log and compaction counters.
func (d *DB) Stats() DBStats {
	ws := d.wal.stats()
	snap := d.snapshotSeq.Load()
	tail := uint64(0)
	if ws.LastSeq > snap {
		tail = ws.LastSeq - snap
	}
	return DBStats{
		WAL:          ws,
		Epoch:        ws.Epoch,
		SnapshotSeq:  snap,
		TailOps:      tail,
		Compactions:  d.compactions.Load(),
		RecoveredOps: d.recoveredOps,
		StoreFormat:  store.FormatVersion,
		CompactEvery: d.opts.CompactEvery,
	}
}

// SaveNamed persists the database's current state as a user-named
// snapshot under <db>/snapshots/<snapName>, rejecting names that would
// escape it, and returns the name it saved under: snapName, or DefaultName
// when that is empty.
func (d *DB) SaveNamed(snapName, comment string) (string, store.Manifest, error) {
	if snapName == "" {
		snapName = DefaultName
	}
	if err := validateName(snapName); err != nil {
		return snapName, store.Manifest{}, err
	}
	m, err := d.core.SaveSnapshot(filepath.Join(d.dir, snapshotsDirName, snapName), comment)
	return snapName, m, err
}

// LoadNamed restores a snapshot previously written by SaveNamed. The
// restore itself is journaled (an OpLoad record), so it survives a crash
// like any other mutation. It returns the name it loaded, as SaveNamed does.
func (d *DB) LoadNamed(snapName string) (string, *store.Snapshot, error) {
	if snapName == "" {
		snapName = DefaultName
	}
	if err := validateName(snapName); err != nil {
		return snapName, nil, err
	}
	snap, err := d.core.LoadSnapshot(filepath.Join(d.dir, snapshotsDirName, snapName))
	return snapName, snap, err
}

// Create makes a new, empty database. Its initial document is pinned to
// disk immediately (a snapshot at log position 0), so recovery never
// depends on catalog options staying stable.
func (c *Catalog) Create(name string) (*DB, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("catalog: closed")
	}
	if _, ok := c.dbs[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	db, err := c.openDB(name, c.epochLocked())
	if err != nil {
		return nil, err
	}
	c.dbs[name] = db
	return db, nil
}

// epochLocked computes the catalog's cluster epoch: the highest epoch
// witnessed by any database or raised via RaiseEpoch. Callers hold c.mu.
func (c *Catalog) epochLocked() uint64 {
	e := c.epoch
	for _, db := range c.dbs {
		if de := db.Epoch(); de > e {
			e = de
		}
	}
	return e
}

// Epoch reports the catalog's cluster epoch — the highest epoch any of
// its databases commits under.
func (c *Catalog) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochLocked()
}

// RaiseEpoch lifts every database (and the catalog itself, so databases
// created later inherit it) to epoch e, durably persisting each raise
// before returning. This is the fencing half of promotion: once it
// returns, nothing committed under a lower epoch can ever be accepted
// here again. Epochs only rise; e at or below the current epoch of a
// database leaves that database untouched.
func (c *Catalog) RaiseEpoch(e uint64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("catalog: closed")
	}
	if e > c.epoch {
		c.epoch = e
	}
	dbs := make([]*DB, 0, len(c.dbs))
	for _, db := range c.dbs {
		dbs = append(dbs, db)
	}
	c.mu.Unlock()
	for _, db := range dbs {
		if err := db.RaiseEpoch(e); err != nil {
			return fmt.Errorf("catalog: raising epoch of %s: %w", db.name, err)
		}
	}
	return nil
}

// Get returns a database by name.
func (c *Catalog) Get(name string) (*DB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	db, ok := c.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return db, nil
}

// Names returns the database names, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.dbs))
	for n := range c.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List returns every database, sorted by name.
func (c *Catalog) List() []*DB {
	c.mu.Lock()
	defer c.mu.Unlock()
	dbs := make([]*DB, 0, len(c.dbs))
	for _, db := range c.dbs {
		dbs = append(dbs, db)
	}
	sort.Slice(dbs, func(i, j int) bool { return dbs[i].name < dbs[j].name })
	return dbs
}

// Drop closes a database and deletes its directory — log, snapshots and
// all. Irreversible.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	db, ok := c.dbs[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.dbs, name)
	c.mu.Unlock()
	// No final compaction: everything written would be deleted two lines
	// later anyway.
	if err := db.close(false); err != nil {
		return err
	}
	if err := os.RemoveAll(db.dir); err != nil {
		return err
	}
	return syncDir(c.dir)
}

// Close stops every database's compactor (running one final compaction
// each) and releases the logs. The catalog is unusable afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	dbs := make([]*DB, 0, len(c.dbs))
	for _, db := range c.dbs {
		dbs = append(dbs, db)
	}
	c.mu.Unlock()
	var first error
	for _, db := range dbs {
		if err := db.close(true); err != nil && first == nil {
			first = err
		}
	}
	c.unlock()
	return first
}
