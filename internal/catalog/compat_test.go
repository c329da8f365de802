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
