package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoverCommittedDataDir opens a copy of testdata/datadir, a data
// directory an earlier build wrote and was killed over (see
// testdata/README.md), and checks that every database recovers to the
// digest and sequence that build reported. It pins the on-disk layout:
// the snapshot and log bytes must stay readable as written.
func TestRecoverCommittedDataDir(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "datadir.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		LastSeq uint64 `json:"last_seq"`
		Digest  string `json:"digest"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "datadir"), dir)
	cat, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("opening the committed data directory: %v", err)
	}
	defer cat.Close()
	if got := cat.Names(); len(got) != len(golden) {
		t.Fatalf("recovered databases %v, golden has %d", got, len(golden))
	}
	for name, want := range golden {
		db, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.LastSeq(); got != want.LastSeq {
			t.Errorf("%s: last seq %d, want %d", name, got, want.LastSeq)
		}
		if got := fmt.Sprintf("%016x", db.Core().Tree().Digest()); got != want.Digest {
			t.Errorf("%s: digest %s, want %s", name, got, want.Digest)
		}
		if db.Stats().RecoveredOps == 0 {
			t.Errorf("%s: no log tail replayed", name)
		}
	}
}

// TestCommittedDataDirCounts pins the integration and feedback counts a
// recovery of testdata/datadir yields: the lengths of the histories the
// build before integration counts recovered from the same bytes. The book
// manifest holds a per-source list of three entries, which reads as a
// count of 3; its log tail then replaces the document (count 0),
// integrates once and records one judgment. A compaction rewrites each
// manifest with a plain number, and a second recovery reads it back.
func TestCommittedDataDirCounts(t *testing.T) {
	type counts struct{ integrations, feedback int }
	manifest := map[string]counts{"book": {3, 1}, "people": {0, 0}}
	recovered := map[string]counts{"book": {1, 1}, "people": {1, 0}}
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "datadir"), dir)
	qs, err := QuickStats(dir)
	if err != nil || len(qs) != len(manifest) {
		t.Fatalf("quick stats %+v, %v", qs, err)
	}
	for _, q := range qs {
		if got := (counts{q.Integrations, q.Feedback}); got != manifest[q.Name] {
			t.Errorf("%s manifest: %+v, want %+v", q.Name, got, manifest[q.Name])
		}
	}
	for round := 0; round < 2; round++ {
		cat, err := Open(dir, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range recovered {
			db, err := cat.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := (counts{db.Core().IntegrationCount(), db.Core().FeedbackCount()}); got != want {
				t.Errorf("round %d, %s: recovered %+v, want %+v", round, name, got, want)
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, name, stateDirName, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil || string(fields["integrations"]) != fmt.Sprint(want.integrations) {
				t.Errorf("round %d, %s: compacted manifest holds integrations %s (err %v), want the number %d",
					round, name, fields["integrations"], err, want.integrations)
			}
		}
		cat.Close()
	}
}
