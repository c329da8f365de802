// Package store persists probabilistic databases to disk — the durable-
// storage role MonetDB plays for the original IMPrECISE prototype. A
// snapshot is a directory holding the probabilistic document (a string
// table frame and a shared-table arena frame), the schema knowledge (DTD),
// and a JSON manifest with integrity metadata, so a long-running
// integrate/query/feedback session can be resumed.
//
// # Durability
//
// The document and schema are written under content-addressed names
// (document-<sha>.bin), each file is fsynced before and the directory
// after its rename, and the manifest — the only file referencing them — is
// written last. A save torn by a crash therefore leaves the previous
// manifest pointing at the previous (still present) files: Load returns
// the stale-but-consistent old snapshot instead of ErrCorrupt. The
// manifest also carries the write-ahead-log sequence number the snapshot
// corresponds to and the session histories (integration statistics,
// feedback events), so a restart resumes with intact /stats counters.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/dtd"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/pxml"
)

const (
	// FormatVersion identifies the snapshot layout Save writes: a strtab
	// frame (the document's interned strings) followed by a shared-table
	// arena frame, revision 3, whose tag/text fields are indices into it.
	// Load reads the file whole and decodes without copying strings. It
	// also reads formatV5, the same frames around an arena of revision 2;
	// a manifest naming any other version refuses to load.
	FormatVersion = 6
	formatV5      = 5

	manifestFile = "manifest.json"
)

// Manifest is the snapshot metadata.
type Manifest struct {
	FormatVersion int       `json:"format_version"`
	SavedAt       time.Time `json:"saved_at"`
	// DocumentFile and SchemaFile name the content-addressed payload
	// files inside the snapshot directory.
	DocumentFile string `json:"document_file,omitempty"`
	SchemaFile   string `json:"schema_file,omitempty"`
	// DocumentSHA256 is the checksum of the document file, verified on
	// load.
	DocumentSHA256 string `json:"document_sha256"`
	// TreeDigest is the structural digest (pxml.Tree.Digest, 16 hex
	// digits) of the saved document, verified on load. It catches what
	// the byte checksum cannot: a document file that decodes
	// to a different tree than the one saved (codec drift), and it lets
	// replication compare a snapshot against a primary position without
	// decoding.
	TreeDigest string `json:"tree_digest"`
	// LogicalNodes and Worlds record the size at save time (Worlds as a
	// decimal string; it can exceed every integer type).
	LogicalNodes int64  `json:"logical_nodes"`
	Worlds       string `json:"worlds"`
	HasSchema    bool   `json:"has_schema"`
	// Comment is free-form (e.g. the integration history).
	Comment string `json:"comment,omitempty"`
	// LogSeq is the write-ahead-log sequence number this snapshot
	// reflects: recovery replays only log entries with a higher sequence.
	LogSeq uint64 `json:"log_seq,omitempty"`
	// Epoch is the cluster epoch in force when the snapshot was taken;
	// recovery resumes at the highest of this and the last write-ahead-log
	// record's epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Integrations and Feedback persist the session histories, so stats
	// counters survive a save/load round trip or a crash recovery.
	Integrations []integrate.Stats `json:"integrations,omitempty"`
	Feedback     []feedback.Event  `json:"feedback,omitempty"`
	// RemovedQueue is read, never written: the accepted-but-unapplied
	// sources of the async ingest queue, which earlier builds persisted
	// under "pending". The queue was removed, so a snapshot holding any
	// refuses to load rather than drop acknowledged sources.
	RemovedQueue []json.RawMessage `json:"pending,omitempty"`
}

// Snapshot is the in-memory form of a stored database.
type Snapshot struct {
	Tree     *pxml.Tree
	Schema   *dtd.Schema // nil when none was stored
	Manifest Manifest
}

// ErrCorrupt is returned when a snapshot fails its integrity checks.
var ErrCorrupt = errors.New("store: snapshot corrupt")

// SaveOptions carries the metadata a snapshot can embed beyond the
// document itself.
type SaveOptions struct {
	// Comment is free-form.
	Comment string
	// LogSeq records the write-ahead-log position the snapshot reflects.
	LogSeq uint64
	// Epoch records the cluster epoch in force at save time.
	Epoch uint64
	// Integrations and Feedback are the session histories to persist.
	Integrations []integrate.Stats
	Feedback     []feedback.Event
}

// Save writes the document (and optional schema) into dir, creating it if
// needed. It is shorthand for SaveWith with only a comment.
func Save(dir string, tree *pxml.Tree, schema *dtd.Schema, comment string) (Manifest, error) {
	return SaveWith(dir, tree, schema, SaveOptions{Comment: comment})
}

// saveLocks serializes snapshot writes per directory within this
// process. Two concurrent saves into the same directory could otherwise
// interleave so that one save's stale-file cleanup deletes the payload
// the other save's committed manifest references; saves into different
// directories (e.g. the compactors of separate catalog databases) stay
// independent.
var (
	saveLocksMu sync.Mutex
	saveLocks   = map[string]*sync.Mutex{}
)

func saveLock(dir string) *sync.Mutex {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	saveLocksMu.Lock()
	defer saveLocksMu.Unlock()
	mu := saveLocks[dir]
	if mu == nil {
		mu = &sync.Mutex{}
		saveLocks[dir] = mu
	}
	return mu
}

// SaveWith writes a full snapshot into dir, creating it if needed.
// Payload files are content-addressed and fsynced, and the manifest is
// written (and fsynced) last, so a save interrupted at any point leaves
// the directory loading as the previous snapshot.
func SaveWith(dir string, tree *pxml.Tree, schema *dtd.Schema, opts SaveOptions) (Manifest, error) {
	mu := saveLock(dir)
	mu.Lock()
	defer mu.Unlock()
	if tree == nil {
		return Manifest{}, errors.New("store: nil tree")
	}
	if err := tree.Validate(); err != nil {
		return Manifest{}, fmt.Errorf("store: refusing to save invalid document: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}
	// The document's strings travel once, in a strtab frame the arena
	// frame's tag/text indices resolve against; Load reads the file into
	// one heap buffer and decodes both zero-copy from it.
	var tab codec.SharedStrings
	body := tree.AppendBinaryShared(nil, &tab)
	doc := codec.AppendFrame(nil, codec.KindStrTab, codec.StrTabVersion, tab.AppendDelta(nil, 0))
	doc = codec.AppendFrame(doc, codec.KindDocument, pxml.BinaryVersionCompact, body)
	sum := sha256.Sum256(doc)
	m := Manifest{
		FormatVersion:  FormatVersion,
		SavedAt:        time.Now().UTC(),
		DocumentFile:   fmt.Sprintf("document-%s.bin", hex.EncodeToString(sum[:6])),
		DocumentSHA256: hex.EncodeToString(sum[:]),
		TreeDigest:     fmt.Sprintf("%016x", tree.Digest()),
		LogicalNodes:   tree.NodeCount(),
		Worlds:         tree.WorldCount().String(),
		HasSchema:      schema != nil,
		Comment:        opts.Comment,
		LogSeq:         opts.LogSeq,
		Epoch:          opts.Epoch,
		Integrations:   opts.Integrations,
		Feedback:       opts.Feedback,
	}
	if err := writeAtomic(filepath.Join(dir, m.DocumentFile), doc); err != nil {
		return Manifest{}, err
	}
	if schema != nil {
		stext := schema.String()
		ssum := sha256.Sum256([]byte(stext))
		m.SchemaFile = fmt.Sprintf("schema-%s.dtd", hex.EncodeToString(ssum[:6]))
		if err := writeAtomic(filepath.Join(dir, m.SchemaFile), []byte(stext)); err != nil {
			return Manifest{}, err
		}
	}
	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	// The manifest rename is the commit point: everything it references
	// is already durable, and until it lands Load keeps returning the
	// previous snapshot.
	if err := writeAtomic(filepath.Join(dir, manifestFile), mdata); err != nil {
		return Manifest{}, err
	}
	cleanupStale(dir, m)
	return m, nil
}

// cleanupStale removes payload files no longer referenced by the committed
// manifest (earlier content-addressed versions). Failures are ignored:
// stale files cost space, never correctness.
func cleanupStale(dir string, m Manifest) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := (strings.HasPrefix(name, "document-") || strings.HasPrefix(name, "schema-")) &&
			name != m.DocumentFile && name != m.SchemaFile
		if stale {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// ReadManifest reads and parses a snapshot manifest without touching the
// payload files — the O(manifest) stat path for listing databases.
func ReadManifest(dir string) (Manifest, error) {
	mdata, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: bad manifest: %v", ErrCorrupt, err)
	}
	return m, nil
}

// CheckFormat reports why this build cannot load a snapshot of format
// version v, or nil if it can: Load refuses exactly the versions it
// names.
func CheckFormat(v int) error {
	if v != FormatVersion && v != formatV5 {
		return fmt.Errorf("store: unsupported format version %d (want %d or %d)", v, formatV5, FormatVersion)
	}
	return nil
}

// Load reads a snapshot back, verifying the checksum and format version.
func Load(dir string) (*Snapshot, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := CheckFormat(m.FormatVersion); err != nil {
		return nil, err
	}
	if n := len(m.RemovedQueue); n > 0 {
		return nil, fmt.Errorf("store: manifest holds %d pending ticket(s) of the async ingest queue, which this build removed", n)
	}
	if m.DocumentFile == "" || m.DocumentFile != filepath.Base(m.DocumentFile) || (m.HasSchema && (m.SchemaFile == "" || m.SchemaFile != filepath.Base(m.SchemaFile))) {
		return nil, fmt.Errorf("%w: manifest references invalid payload file", ErrCorrupt)
	}
	tree, err := loadDocument(filepath.Join(dir, m.DocumentFile), &m)
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%016x", tree.Digest()); got != m.TreeDigest {
		return nil, fmt.Errorf("%w: tree digest %s differs from manifest %s", ErrCorrupt, got, m.TreeDigest)
	}
	snap := &Snapshot{Tree: tree, Manifest: m}
	if m.HasSchema {
		sdata, err := os.ReadFile(filepath.Join(dir, m.SchemaFile))
		if err != nil {
			return nil, fmt.Errorf("%w: schema missing: %v", ErrCorrupt, err)
		}
		schema, err := dtd.ParseString(string(sdata))
		if err != nil {
			return nil, fmt.Errorf("%w: bad schema: %v", ErrCorrupt, err)
		}
		snap.Schema = schema
	}
	return snap, nil
}

// loadDocument opens and decodes a document: read the whole file,
// verify its checksum, then decode the strtab and arena frames
// zero-copy — node strings stay views into the heap buffer, which they
// keep alive themselves and nothing ever writes again. The
// decoder computes every node's digest and its own bottom-up node count as
// it goes, so the manifest cross-checks walk nothing: a load allocates the
// file buffer, the node arena and little else.
func loadDocument(path string, m *Manifest) (*pxml.Tree, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(doc)
	if hex.EncodeToString(sum[:]) != m.DocumentSHA256 {
		return nil, fmt.Errorf("%w: document checksum mismatch", ErrCorrupt)
	}
	sframe, rest, err := codec.ParseFrame(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if sframe.Kind != codec.KindStrTab {
		return nil, fmt.Errorf("%w: document starts with frame %q, want strtab", ErrCorrupt, sframe.Kind)
	}
	base, strs, err := codec.DecodeStrTabPayload(sframe.Payload, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if base != 0 {
		return nil, fmt.Errorf("%w: document strtab based at %d, want 0", ErrCorrupt, base)
	}
	dframe, rest, err := codec.ParseFrame(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if dframe.Kind != codec.KindDocument || len(rest) != 0 {
		return nil, fmt.Errorf("%w: document is not strtab+document frames", ErrCorrupt)
	}
	tree, err := pxml.DecodeArenaWith(dframe.Payload, pxml.DecodeArenaOptions{
		Strings:       strs,
		ZeroCopy:      true,
		ExpectLogical: m.LogicalNodes,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return tree, nil
}

// writeAtomic writes data under path via a unique temp file in the same
// directory, fsyncs it, renames it into place, and fsyncs the directory,
// so the file is either absent/previous or complete after a crash — never
// half-written.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories (EINVAL); that is a
	// durability gap we cannot close, not an error to fail the save on.
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
