package catalog

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pxml"
)

const (
	abA = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
	abB = `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`
	abC = `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`
)

func testOptions() Options {
	return Options{RootTag: "addressbook", CompactEvery: -1}
}

// copyDir clones a directory tree — the disk state a crash would leave
// behind, inspectable without touching the original.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatalf("copyDir: %v", err)
	}
}

// TestKillRestartRoundTrip is the acceptance scenario: integrate several
// sources and record feedback into a named database, kill the process
// without any clean shutdown (the on-disk state is copied as-is), reopen
// the catalog, and get a bit-identical tree with intact histories.
func TestKillRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	cat, err := Open(data, testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db, err := cat.Create("movies")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cdb := db.Core()
	for _, src := range []string{abA, abB, abC} {
		if _, err := cdb.IntegrateXMLString(src); err != nil {
			t.Fatalf("integrate: %v", err)
		}
	}
	if _, err := cdb.Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	wantTree := cdb.Tree()
	wantWorlds := cdb.WorldCount()
	wantInts := cdb.IntegrationHistory()
	wantEvs := cdb.FeedbackHistory()
	if len(wantInts) != 3 || len(wantEvs) != 1 {
		t.Fatalf("precondition: %d integrations, %d events", len(wantInts), len(wantEvs))
	}

	// SIGKILL-equivalent: no Close, no flush — only what each op fsynced.
	killed := filepath.Join(dir, "killed")
	copyDir(t, data, killed)

	cat2, err := Open(killed, testOptions())
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer cat2.Close()
	db2, err := cat2.Get("movies")
	if err != nil {
		t.Fatalf("Get after kill: %v", err)
	}
	c2 := db2.Core()
	if !pxml.Equal(c2.Tree().Root(), wantTree.Root()) {
		t.Fatalf("recovered tree differs:\n%s\nvs\n%s", c2.Tree(), wantTree)
	}
	if c2.WorldCount().Cmp(wantWorlds) != 0 {
		t.Fatalf("recovered worlds = %s, want %s", c2.WorldCount(), wantWorlds)
	}
	gotInts := c2.IntegrationHistory()
	if len(gotInts) != len(wantInts) {
		t.Fatalf("recovered %d integrations, want %d", len(gotInts), len(wantInts))
	}
	for i := range gotInts {
		if gotInts[i] != wantInts[i] {
			t.Fatalf("integration %d stats differ: %+v vs %+v", i, gotInts[i], wantInts[i])
		}
	}
	gotEvs := c2.FeedbackHistory()
	if len(gotEvs) != 1 {
		t.Fatalf("recovered %d feedback events", len(gotEvs))
	}
	if gotEvs[0].Value != "2222" || !gotEvs[0].When.Equal(wantEvs[0].When) ||
		gotEvs[0].WorldsAfter.Cmp(wantEvs[0].WorldsAfter) != 0 {
		t.Fatalf("recovered event = %+v, want %+v", gotEvs[0], wantEvs[0])
	}
	if st := db2.Stats(); st.RecoveredOps != 4 {
		t.Fatalf("RecoveredOps = %d, want 4", st.RecoveredOps)
	}
	cat.Close()
}

// TestCompactionThenTailReplay proves the two-phase recovery: a snapshot
// plus a write-ahead tail beyond it.
func TestCompactionThenTailReplay(t *testing.T) {
	dir := t.TempDir()
	cat, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	if _, err := cdb.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if _, err := cdb.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := db.Stats()
	if st.SnapshotSeq != 2 || st.TailOps != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats = %+v", st)
	}
	// One more op lands in the tail, after the snapshot.
	if _, err := cdb.IntegrateXMLString(abC); err != nil {
		t.Fatal(err)
	}
	want := cdb.Tree()
	killed := t.TempDir()
	copyDir(t, dir, killed)
	cat2, err := Open(killed, testOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer cat2.Close()
	db2, err := cat2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(db2.Core().Tree().Root(), want.Root()) {
		t.Fatalf("snapshot+tail recovery differs")
	}
	if st := db2.Stats(); st.RecoveredOps != 1 {
		t.Fatalf("RecoveredOps = %d, want 1 (only the tail)", st.RecoveredOps)
	}
	if len(db2.Core().IntegrationHistory()) != 3 {
		t.Fatalf("history lost through compaction: %d", len(db2.Core().IntegrationHistory()))
	}
	cat.Close()
}

// TestBackgroundCompaction exercises the automatic trigger.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.CompactEvery = 2
	cat, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{abA, abB, abC} {
		if _, err := db.Core().IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", db.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCatalogCreateGetDropSemantics(t *testing.T) {
	cat, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if _, err := cat.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, ".hidden", "/abs", "LOCK"} {
		if _, err := cat.Create(bad); !errors.Is(err, ErrBadName) {
			t.Fatalf("Create(%q): %v, want ErrBadName", bad, err)
		}
	}
	if _, err := cat.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if _, err := cat.Create("b"); err != nil {
		t.Fatal(err)
	}
	if names := cat.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if err := cat.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Drop("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cat.Dir(), "a")); !os.IsNotExist(err) {
		t.Fatalf("dropped directory survives: %v", err)
	}
}

func TestDataDirSingleProcessLock(t *testing.T) {
	dir := t.TempDir()
	cat, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil {
		t.Fatalf("second open of a locked data directory should fail")
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	cat2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	cat2.Close()
}

func TestNamedSnapshotsConstrained(t *testing.T) {
	cat, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveNamed("exp1", "before"); err != nil {
		t.Fatalf("SaveNamed: %v", err)
	}
	for _, bad := range []string{"../escape", "/etc/passwd", `a\b`, ".."} {
		if _, err := db.SaveNamed(bad, ""); !errors.Is(err, ErrBadName) {
			t.Fatalf("SaveNamed(%q): %v, want ErrBadName", bad, err)
		}
		if _, err := db.LoadNamed(bad); !errors.Is(err, ErrBadName) {
			t.Fatalf("LoadNamed(%q): %v, want ErrBadName", bad, err)
		}
	}
	if _, err := db.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	snap, err := db.LoadNamed("exp1")
	if err != nil {
		t.Fatalf("LoadNamed: %v", err)
	}
	if !pxml.Equal(db.Core().Tree().Root(), snap.Tree.Root()) {
		t.Fatalf("restore mismatch")
	}
	// The restore itself was journaled: a kill right now recovers the
	// restored state, not the pre-restore one.
	killed := t.TempDir()
	copyDir(t, cat.Dir(), killed)
	cat2, err := Open(killed, testOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer cat2.Close()
	db2, err := cat2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(db2.Core().Tree().Root(), snap.Tree.Root()) {
		t.Fatalf("journaled load lost on recovery")
	}
}
