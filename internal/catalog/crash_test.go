package catalog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pxml"
	"repro/internal/store"
)

// TestCrashRecoveryEveryByteOffset is the crash-safety property test: a
// write killed at EVERY byte offset of the write-ahead segment must
// recover to either the pre-op or the post-op state — atomically, and
// never with an error, because the valid prefix is always intact and the
// torn suffix is truncated, not rejected.
//
// Construction: op 1 (integrate A) establishes the pre-state; op 2
// (integrate B) appends one more frame. For every cut point inside op 2's
// frame the on-disk state is cloned, the segment truncated to the cut,
// and the catalog reopened. The v4/ subtests cut the log this build
// writes; the cut=N subtests cut the same two ops as the build before
// record version 4 logged them (testdata/v3crash/plain): the log such a
// build leaves when it dies mid-append and this build opens it.
func TestCrashRecoveryEveryByteOffset(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	cat, err := Open(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	seg := filepath.Join(data, "x", walDirName, segName(1))

	if _, err := cdb.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	preTree := cdb.Tree()
	preInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	sizePre := preInfo.Size()

	if _, err := cdb.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	postTree := cdb.Tree()
	postInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	sizePost := postInfo.Size()
	if sizePost <= sizePre {
		t.Fatalf("op 2 wrote no bytes? %d -> %d", sizePre, sizePost)
	}
	// No clean shutdown: the live catalog is abandoned, only the fsynced
	// bytes exist. (Closing it here would compact and change the disk.)

	t.Run("v4", func(t *testing.T) { runEveryByteCut(t, data, sizePre, sizePost, preTree, postTree) })
	runCommittedCut(t, "plain", preTree, postTree)
}

// runCommittedCut runs runEveryByteCutSeg over a copy of
// testdata/v3crash/<name>, a data directory the build before record
// version 4 wrote (see testdata/README.md), cutting inside the last frame
// of database x's log. Every cut recovers pre, the full frame post, and
// this build's next append lands after the earlier build's records.
func runCommittedCut(t *testing.T, name string, pre, post *pxml.Tree) {
	t.Helper()
	data := filepath.Join(t.TempDir(), "data")
	copyDir(t, filepath.Join("testdata", "v3crash", name), data)
	segRel := filepath.Join("x", walDirName, segName(1))
	seg, err := os.ReadFile(filepath.Join(data, segRel))
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for off := 0; off+frameHeaderLen <= len(seg); off += frameHeaderLen + int(binary.LittleEndian.Uint32(seg[off:])) {
		last = off
	}
	runEveryByteCutSeg(t, data, segRel, int64(last), int64(len(seg)), pre, post)
}

// runEveryByteCut clones data, truncates the segment to every offset in
// [sizePre, sizePost], and verifies recovery lands on exactly the pre-op
// or post-op tree and keeps accepting appends.
func runEveryByteCut(t *testing.T, data string, sizePre, sizePost int64, preTree, postTree *pxml.Tree) {
	t.Helper()
	runEveryByteCutSeg(t, data, filepath.Join("x", walDirName, segName(1)), sizePre, sizePost, preTree, postTree)
}

// runEveryByteCutSeg is runEveryByteCut over an arbitrary segment file
// (relative to the data dir) — the post-compaction harness cuts a later
// segment than the first.
func runEveryByteCutSeg(t *testing.T, data, segRel string, sizePre, sizePost int64, preTree, postTree *pxml.Tree) {
	t.Helper()
	for cut := sizePre; cut <= sizePost; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			killed := t.TempDir()
			copyDir(t, data, killed)
			if err := os.Truncate(filepath.Join(killed, segRel), cut); err != nil {
				t.Fatal(err)
			}
			cat2, err := Open(killed, testOptions())
			if err != nil {
				t.Fatalf("recovery failed at cut %d: %v", cut, err)
			}
			defer cat2.Close()
			db2, err := cat2.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			got := db2.Core().Tree()
			want, label := preTree, "pre-op"
			if cut == sizePost {
				want, label = postTree, "post-op"
			}
			if !pxml.Equal(got.Root(), want.Root()) {
				t.Fatalf("cut %d: recovered tree is not the %s state", cut, label)
			}
			if got.WorldCount().Cmp(want.WorldCount()) != 0 {
				t.Fatalf("cut %d: world count %s != %s", cut, got.WorldCount(), want.WorldCount())
			}
			// A committed op must also be appendable-after: the log keeps
			// accepting writes from the recovered position.
			if _, err := db2.Core().IntegrateXMLString(abC); err != nil {
				t.Fatalf("cut %d: append after recovery: %v", cut, err)
			}
		})
	}
}

// TestCrashRecoveryMixedEncodingEveryByteOffset reruns the crash-safety
// property over a log two builds encoded: the people log of
// testdata/datadir, whose records an earlier build appended before it was
// killed, continued by this build with op 2, a replace whose string-table
// delta builds on the table recovery rebuilt from the earlier records.
// Every cut inside op 2's frame must recover to the state the earlier
// build committed; the full frame, to the post state. The v4/ subtests
// cut op 2 as this build writes it; the cut=N subtests, op 2 as the build
// before record version 4 wrote it (testdata/v3crash/mixed).
func TestCrashRecoveryMixedEncodingEveryByteOffset(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	committed := filepath.Join("testdata", "datadir", "people")
	copyDir(t, committed, filepath.Join(data, "x"))
	cat, err := Open(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	preTree := cdb.Tree()
	seg := filepath.Join(data, "x", walDirName, segName(1))
	preInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	oldInfo, err := os.Stat(filepath.Join(committed, walDirName, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if preInfo.Size() != oldInfo.Size() {
		t.Fatalf("recovery changed the earlier build's segment: %d -> %d bytes", oldInfo.Size(), preInfo.Size())
	}

	var book strings.Builder
	book.WriteString("<addressbook>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&book, "<person><nm>Person %02d</nm><tel>555-01%02d</tel></person>", i, i)
	}
	book.WriteString("</addressbook>")
	if err := cdb.ReplaceTree(mustTree(t, book.String())); err != nil {
		t.Fatal(err)
	}
	postTree := cdb.Tree()
	postInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if postInfo.Size() <= preInfo.Size() {
		t.Fatalf("op 2 wrote no bytes? %d -> %d", preInfo.Size(), postInfo.Size())
	}
	t.Run("v4", func(t *testing.T) { runEveryByteCut(t, data, preInfo.Size(), postInfo.Size(), preTree, postTree) })
	runCommittedCut(t, "mixed", preTree, postTree)
}

// TestCrashRecoveryCompactedV5EveryByteOffset reruns the crash-safety
// property over a compacted database: op 1 is compacted into a snapshot
// (strtab frame + shared-arena document, read on reopen), and op 2 lands
// as a strtab-bearing record in the surviving log. Every cut inside op
// 2's frame must recover the loaded snapshot state exactly; the full
// frame, the post-op state. The cut=N subtests cut the v5 snapshot and
// version 3 log the build before store v6 wrote
// (testdata/v3crash/compacted); the v6/ subtests, the v6 snapshot and
// version 4 log this build writes.
func TestCrashRecoveryCompactedV5EveryByteOffset(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	cat, err := Open(data, testOptions())
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
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m, err := store.ReadManifest(filepath.Join(data, "x", stateDirName))
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != store.FormatVersion {
		t.Fatalf("compaction wrote format v%d, want v%d", m.FormatVersion, store.FormatVersion)
	}
	preTree := cdb.Tree()

	// The segment op 2 lands in may not exist yet (compaction dropped the
	// covered log): snapshot sizes before, integrate, diff after.
	walDir := filepath.Join(data, "x", walDirName)
	sizes := func() map[string]int64 {
		out := map[string]int64{}
		ents, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = info.Size()
		}
		return out
	}
	before := sizes()
	if _, err := cdb.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	postTree := cdb.Tree()
	var segRel string
	var sizePre, sizePost int64
	for name, sz := range sizes() {
		if before[name] != sz {
			if segRel != "" {
				t.Fatalf("op 2 grew two segments: %s and %s", segRel, name)
			}
			segRel = filepath.Join("x", walDirName, name)
			sizePre, sizePost = before[name], sz
		}
	}
	if segRel == "" || sizePost <= sizePre {
		t.Fatalf("op 2 wrote no bytes (before %v, after %v)", before, sizes())
	}
	t.Run("v6", func(t *testing.T) { runEveryByteCutSeg(t, data, segRel, sizePre, sizePost, preTree, postTree) })
	runCommittedCut(t, "compacted", preTree, postTree)
}
