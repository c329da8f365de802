package store_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/feedback"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/store"
)

// manifestOf reads the committed manifest back, so tests can locate the
// content-addressed payload files.
func manifestOf(t *testing.T, dir string) store.Manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	var m store.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decode manifest: %v", err)
	}
	return m
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tree := pxmltest.Fig2Tree()
	schema := dtd.MustParse(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>
	`)
	m, err := store.Save(dir, tree, schema, "figure 2 database")
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if m.Worlds != "3" || m.LogicalNodes != tree.NodeCount() || !m.HasSchema {
		t.Fatalf("manifest = %+v", m)
	}
	if m.FormatVersion != store.FormatVersion || m.DocumentFile == "" {
		t.Fatalf("manifest fields missing: %+v", m)
	}
	snap, err := store.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !pxml.Equal(snap.Tree.Root(), tree.Root()) {
		t.Fatalf("loaded tree differs:\n%s\nvs\n%s", snap.Tree, tree)
	}
	if snap.Schema == nil || snap.Schema.MaxOccurs("person", "tel") != 1 {
		t.Fatalf("schema lost: %v", snap.Schema)
	}
	if snap.Manifest.Comment != "figure 2 database" {
		t.Fatalf("comment = %q", snap.Manifest.Comment)
	}
}

func TestSaveWithoutSchemaRemovesStaleFile(t *testing.T) {
	dir := t.TempDir()
	tree := pxmltest.Fig2Tree()
	schema := dtd.MustParse(`<!ELEMENT addressbook ANY>`)
	if _, err := store.Save(dir, tree, schema, ""); err != nil {
		t.Fatalf("Save with schema: %v", err)
	}
	if _, err := store.Save(dir, tree, nil, ""); err != nil {
		t.Fatalf("Save without schema: %v", err)
	}
	snap, err := store.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Schema != nil {
		t.Fatalf("stale schema resurrected")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "schema") {
			t.Fatalf("schema file still present: %s", e.Name())
		}
	}
}

func TestLoadDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	if _, err := store.Save(dir, pxmltest.Fig2Tree(), nil, ""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	docPath := filepath.Join(dir, manifestOf(t, dir).DocumentFile)
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "1111", "9999", 1)
	if err := os.WriteFile(docPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Load(dir)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := store.Load(t.TempDir()); err == nil {
		t.Fatalf("empty dir should fail")
	}
	// Bad manifest JSON.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bad manifest: %v", err)
	}
	// Wrong version.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "manifest.json"),
		[]byte(`{"format_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir2); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("version check: %v", err)
	}
	// Manifest ok but document missing.
	dir3 := t.TempDir()
	if _, err := store.Save(dir3, pxmltest.Fig2Tree(), nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir3, manifestOf(t, dir3).DocumentFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir3); err == nil {
		t.Fatalf("missing document should fail")
	}
	// Schema promised but missing.
	dir4 := t.TempDir()
	schema := dtd.MustParse(`<!ELEMENT a ANY>`)
	if _, err := store.Save(dir4, pxmltest.Fig2Tree(), schema, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir4, manifestOf(t, dir4).SchemaFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir4); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("missing schema: %v", err)
	}
	// A manifest escaping the snapshot directory is corrupt, not a
	// traversal primitive.
	dir5 := t.TempDir()
	bad := `{"format_version": 5, "document_file": "../outside.bin", "document_sha256": "00"}`
	if err := os.WriteFile(filepath.Join(dir5, "manifest.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir5); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("escaping document_file: %v", err)
	}
	// An older layout refuses to open, naming its version.
	dir6 := t.TempDir()
	v4 := `{"format_version": 4, "document_file": "document-000000000000.bin", "document_sha256": "00"}`
	if err := os.WriteFile(filepath.Join(dir6, "manifest.json"), []byte(v4), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir6); err == nil || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("v4 manifest: %v", err)
	}
}

// dirFiles reads every file of a flat directory, to check that a refused
// load left it as it was.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestFormatLadderCompat walks the snapshot format versions: Load reads
// the one Save writes (v6) and v5, which an earlier build wrote (the
// compacted snapshot of the catalog's committed data directory), and
// refuses every other rung, older or newer, by naming its version —
// without touching the directory.
func TestFormatLadderCompat(t *testing.T) {
	tree := pxmltest.Fig2Tree()
	for _, version := range []int{1, 2, 3, 4, 5, store.FormatVersion, store.FormatVersion + 1} {
		dir := t.TempDir()
		switch version {
		case 5:
			v5, err := store.Load(filepath.Join("..", "catalog", "testdata", "datadir", "book", "state"))
			if err != nil {
				t.Fatalf("v5: Load: %v", err)
			}
			if v5.Manifest.FormatVersion != 5 || v5.Tree.NodeCount() != v5.Manifest.LogicalNodes {
				t.Fatalf("v5: loaded manifest v%d, %d logical nodes", v5.Manifest.FormatVersion, v5.Tree.NodeCount())
			}
			tree = v5.Tree // saved again below, as v6
			continue
		case store.FormatVersion:
			if _, err := store.Save(dir, tree, nil, ""); err != nil {
				t.Fatal(err)
			}
			snap, err := store.Load(dir)
			if err != nil {
				t.Fatalf("v%d: Load: %v", version, err)
			}
			if snap.Manifest.FormatVersion != version || !pxml.Equal(snap.Tree.Root(), tree.Root()) || snap.Tree.Digest() != tree.Digest() {
				t.Fatalf("v%d: loaded manifest v%d, tree equal %v", version, snap.Manifest.FormatVersion, pxml.Equal(snap.Tree.Root(), tree.Root()))
			}
			continue
		}
		m := fmt.Sprintf(`{"format_version": %d, "document_file": "document-000000000000.bin", "document_sha256": "00"}`, version)
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "document-000000000000.bin"), []byte("payload"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		_, err := store.Load(dir)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", version)) {
			t.Fatalf("v%d: Load = %v, want a refusal naming the version", version, err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("v%d: the refused load changed the directory", version)
		}
	}
}

// TestLoadFormatV1: a snapshot in the first release's layout (fixed
// document.xml, no document_file key) is refused by its version, not
// misread as a manifest naming no document, and its files stay as they
// were.
func TestLoadFormatV1(t *testing.T) {
	dir := t.TempDir()
	doc := "<addressbook><person><nm>John</nm></person></addressbook>"
	m := `{"format_version": 1, "saved_at": "2020-01-01T00:00:00Z", "document_sha256": "00", "logical_nodes": 4, "worlds": "1", "has_schema": false}`
	if err := os.WriteFile(filepath.Join(dir, "document.xml"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	_, err := store.Load(dir)
	if err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Load v1 = %v, want a refusal naming version 1", err)
	}
	if errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("a v1 snapshot reported as corrupt: %v", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused load changed the v1 directory")
	}
}

func TestSaveRejectsNilAndInvalid(t *testing.T) {
	if _, err := store.Save(t.TempDir(), nil, nil, ""); err == nil {
		t.Fatalf("nil tree should fail")
	}
}

func TestSaveLoadManyRandomTrees(t *testing.T) {
	dir := t.TempDir()
	cfg := pxmltest.DefaultGenConfig()
	cfg.AllowEmptyAlt = false
	rng := newRng()
	for i := 0; i < 20; i++ {
		tree := pxmltest.RandomTree(rng, cfg)
		if _, err := store.Save(dir, tree, nil, ""); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		snap, err := store.Load(dir)
		if err != nil {
			t.Fatalf("Load %d: %v", i, err)
		}
		if !pxml.Equal(snap.Tree.Root(), tree.Root()) {
			t.Fatalf("round trip %d differs", i)
		}
	}
}

// TestTornSaveLoadsStale is the crash-safety property of the layout: a
// save interrupted after writing the new payload but before committing the
// manifest leaves the directory loading as the previous snapshot — stale,
// never ErrCorrupt.
func TestTornSaveLoadsStale(t *testing.T) {
	dir := t.TempDir()
	old := pxmltest.Fig2Tree()
	if _, err := store.Save(dir, old, nil, "generation 1"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Simulate the torn second save: the new content-addressed document
	// landed on disk, the manifest rename did not.
	if err := os.WriteFile(filepath.Join(dir, "document-aaaaaaaaaaaa.xml"),
		[]byte("<addressbook><person><nm>Torn</nm></person></addressbook>"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load(dir)
	if err != nil {
		t.Fatalf("Load after torn save: %v", err)
	}
	if !pxml.Equal(snap.Tree.Root(), old.Root()) || snap.Manifest.Comment != "generation 1" {
		t.Fatalf("torn save did not load the previous snapshot")
	}
}

// TestHistoriesRoundTrip persists the session state the manifest
// carries: log position, integration count and feedback events.
func TestHistoriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	evs := []feedback.Event{{
		Query:        `//person/tel`,
		Value:        "2222",
		Judgment:     feedback.Incorrect,
		PriorP:       0.5,
		WorldsBefore: big.NewInt(3),
		WorldsAfter:  big.NewInt(1),
		When:         time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC),
	}}
	_, err := store.SaveWith(dir, pxmltest.Fig2Tree(), nil, store.SaveOptions{
		Comment:      "with state",
		LogSeq:       42,
		Integrations: 7,
		Feedback:     evs,
	})
	if err != nil {
		t.Fatalf("SaveWith: %v", err)
	}
	snap, err := store.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m := snap.Manifest
	if m.LogSeq != 42 {
		t.Fatalf("LogSeq = %d", m.LogSeq)
	}
	if m.Integrations != 7 {
		t.Fatalf("integrations = %d", m.Integrations)
	}
	if len(m.Feedback) != 1 {
		t.Fatalf("feedback = %+v", m.Feedback)
	}
	got := m.Feedback[0]
	if got.Query != evs[0].Query || got.Judgment != feedback.Incorrect ||
		got.WorldsBefore.Cmp(big.NewInt(3)) != 0 || got.WorldsAfter.Cmp(big.NewInt(1)) != 0 ||
		!got.When.Equal(evs[0].When) {
		t.Fatalf("feedback event mangled: %+v", got)
	}
}

func newRng() *rand.Rand { return rand.New(rand.NewSource(31)) }

// TestBinaryDocumentTamper: flipping any byte of the binary document file
// must be caught (by the SHA-256 in the manifest, the frame CRC, or the
// arena digest) — never load silently wrong.
func TestBinaryDocumentTamper(t *testing.T) {
	dir := t.TempDir()
	tree := pxmltest.Fig2Tree()
	m, err := store.SaveWith(dir, tree, nil, store.SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(dir, m.DocumentFile)
	orig, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(orig); i += 7 {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x20
		if err := os.WriteFile(docPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(dir); err == nil {
			t.Fatalf("byte flip at %d loaded successfully", i)
		}
	}
}

// TestManifestIntegrationCount: a manifest carries the integration count
// as a JSON number, and leaves the field out for 0, which every earlier
// build reads as an empty history. It reads a number as itself, the
// per-source list earlier builds wrote as its length, and an absent field
// or null as 0. A negative number, a fraction, one past math.MaxInt or a
// string is a bad manifest.
func TestManifestIntegrationCount(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 256, math.MaxInt} {
		if _, err := store.SaveWith(dir, pxmltest.Fig2Tree(), nil, store.SaveOptions{Integrations: n}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		field := fmt.Sprintf(`"integrations": %d`, n)
		if has := strings.Contains(string(raw), `"integrations"`); has != (n != 0) || n != 0 && !strings.Contains(string(raw), field) {
			t.Fatalf("count %d written as:\n%s", n, raw)
		}
		if m, err := store.ReadManifest(dir); err != nil || int(m.Integrations) != n {
			t.Fatalf("count %d read back as %d (err %v)", n, m.Integrations, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	// withCount rewrites the manifest's integrations field, or drops it
	// when value is empty.
	withCount := func(value string) {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "integrations")
		if value != "" {
			m["integrations"] = json.RawMessage(value)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	legacy := `[{"OracleCalls":3,"MustPairs":1,"VerdictMemoHits":0,"MergeMemoHits":0},{"OracleCalls":0},{}]`
	for value, want := range map[string]int{legacy: 3, "[]": 0, "null": 0, "": 0, "12": 12} {
		withCount(value)
		snap, err := store.Load(dir)
		if err != nil || int(snap.Manifest.Integrations) != want {
			t.Errorf("integrations %q loaded as %+v (err %v), want %d", value, snap, err, want)
		}
	}
	for _, value := range []string{"-1", "1.5", "2e1", "9223372036854775808", `"3"`, "{}", "true"} {
		withCount(value)
		_, err := store.Load(dir)
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "bad manifest") || !strings.Contains(err.Error(), "integration") {
			t.Errorf("integrations %q: Load = %v, want a bad manifest naming the integration count", value, err)
		}
	}
}
