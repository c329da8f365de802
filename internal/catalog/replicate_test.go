package catalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

// mutateN performs a deterministic mix of journaled mutations so the log
// carries every op kind replication must ship.
func mutateAll(t *testing.T, db *core.Database) {
	t.Helper()
	if _, err := db.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if _, err := db.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.IntegrateXMLString(abC); err != nil {
		t.Fatal(err)
	}
}

// TestOpsSincePaging covers the WAL read path: full reads, paging via
// limit, empty reads at the tip, and ErrSeqGone beyond the log.
func TestOpsSincePaging(t *testing.T) {
	cat, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, db.Core())
	last := db.LastSeq()
	if last != 5 {
		t.Fatalf("LastSeq = %d, want 5", last)
	}

	recs, err := db.OpsSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("OpsSince(0) returned %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	kinds := []core.OpKind{core.OpIntegrate, core.OpIntegrate, core.OpFeedback, core.OpNormalize, core.OpIntegrate}
	for i, k := range kinds {
		if recs[i].Op.Kind != k {
			t.Fatalf("record %d kind %q, want %q", i, recs[i].Op.Kind, k)
		}
	}

	// Paged read: two at a time, resuming from the last seq seen.
	var paged []WALRecord
	after := uint64(0)
	for {
		page, err := db.OpsSince(after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		if len(page) > 2 {
			t.Fatalf("page of %d records exceeds limit 2", len(page))
		}
		paged = append(paged, page...)
		after = page[len(page)-1].Seq
	}
	// Records decoded from the binary log carry freshly decoded trees, so
	// compare structurally rather than by reflect.DeepEqual.
	if len(paged) != len(recs) {
		t.Fatalf("paged read returned %d records, full read %d", len(paged), len(recs))
	}
	for i := range recs {
		if paged[i].Seq != recs[i].Seq || paged[i].Epoch != recs[i].Epoch || paged[i].Op.Kind != recs[i].Op.Kind {
			t.Fatalf("paged record %d = %+v, full read %+v", i, paged[i], recs[i])
		}
		if len(paged[i].Op.SourceTrees) != len(recs[i].Op.SourceTrees) {
			t.Fatalf("paged record %d carries %d trees, full read %d", i, len(paged[i].Op.SourceTrees), len(recs[i].Op.SourceTrees))
		}
		for j, tr := range recs[i].Op.SourceTrees {
			if !pxml.Equal(paged[i].Op.SourceTrees[j].Root(), tr.Root()) {
				t.Fatalf("paged record %d tree %d differs from full read", i, j)
			}
		}
	}

	if recs, err := db.OpsSince(last, 0); err != nil || len(recs) != 0 {
		t.Fatalf("OpsSince(tip) = %d records, err %v; want empty, nil", len(recs), err)
	}
	if _, err := db.OpsSince(last+1, 0); !errors.Is(err, ErrSeqGone) {
		t.Fatalf("OpsSince beyond the log returned %v, want ErrSeqGone", err)
	}
}

// TestRawOpsSinceMatchesDecoded pins the invariant the zero-re-encode
// binary wire rests on: RawOpsSince returns the exact on-disk payload
// bytes whose decode equals the structured page OpsSince serves.
func TestRawOpsSinceMatchesDecoded(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		cat, err := Open(t.TempDir(), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer cat.Close()
		db, err := cat.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		mutateAll(t, db.Core())

		recs, err := db.OpsSince(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		raws, prefix, err := db.RawOpsSince(2, 0, codec.TabMark{})
		if err != nil {
			t.Fatal(err)
		}
		if len(raws) != len(recs) || len(raws) == 0 {
			t.Fatalf("%d raw records for %d decoded", len(raws), len(recs))
		}
		// A page starting mid-segment assumes the skipped records'
		// cumulative string table — exactly what the prefix carries.
		// Seeding a table from it and decoding in order is what the
		// binary wire's receiver does.
		var tab codec.StrTab
		if err := tab.Apply(0, prefix); err != nil {
			t.Fatal(err)
		}
		for i := range raws {
			if raws[i].Seq != recs[i].Seq || raws[i].Epoch != recs[i].Epoch {
				t.Fatalf("raw %d header (%d,%d), decoded (%d,%d)",
					i, raws[i].Seq, raws[i].Epoch, recs[i].Seq, recs[i].Epoch)
			}
			if err := checkRecordHeader(raws[i].Payload); err != nil {
				t.Fatalf("raw %d: %v", i, err)
			}
			dec, err := DecodeWALRecordShared(raws[i].Payload, &tab)
			if err != nil {
				t.Fatalf("raw %d does not decode: %v", i, err)
			}
			if dec.Seq != recs[i].Seq || dec.Op.Kind != recs[i].Op.Kind {
				t.Fatalf("raw %d decodes to (%d,%s), want (%d,%s)",
					i, dec.Seq, dec.Op.Kind, recs[i].Seq, recs[i].Op.Kind)
			}
		}

		// The long-poll form serves the same raw page.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		waited, _, err := db.WaitRawOps(ctx, 2, 0, codec.TabMark{})
		if err != nil || len(waited) != len(raws) {
			t.Fatalf("WaitRawOps = %d records (err %v), want %d", len(waited), err, len(raws))
		}
		// And at every position, not only 2, the indexed read serves
		// what a scan from the start of the segment does.
		checkIndexedEqualsScan(t, db.wal)
	})
}

// TestOpsSinceAfterCompaction: once compaction drops the shipped
// segments, tailing from before them must fail with ErrSeqGone (the
// follower re-bootstraps), while tailing from the snapshot position
// still works.
func TestOpsSinceAfterCompaction(t *testing.T) {
	opts := testOptions()
	opts.SegmentBytes = 1 // rotate after every record
	cat, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, db.Core())
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpsSince(0, 0); !errors.Is(err, ErrSeqGone) {
		t.Fatalf("OpsSince(0) after compaction returned %v, want ErrSeqGone", err)
	}
	snap := db.Stats().SnapshotSeq
	if snap != db.LastSeq() {
		t.Fatalf("snapshot seq %d != last seq %d after compaction", snap, db.LastSeq())
	}
	if recs, err := db.OpsSince(snap, 0); err != nil || len(recs) != 0 {
		t.Fatalf("OpsSince(snapshot) = %d records, err %v", len(recs), err)
	}
}

// TestWaitRawOpsLongPoll: WaitRawOps blocks on an up-to-date log until
// the next commit lands, and returns an empty page on timeout.
func TestWaitRawOpsLongPoll(t *testing.T) {
	cat, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}

	// Timeout path: nothing commits, the poll comes back empty.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	raws, _, err := db.WaitRawOps(ctx, 0, 0, codec.TabMark{})
	cancel()
	if err != nil || len(raws) != 0 {
		t.Fatalf("idle WaitRawOps = %d records, err %v; want empty, nil", len(raws), err)
	}

	// Wakeup path: a commit lands while the poll is parked.
	type result struct {
		raws []RawWALRecord
		err  error
	}
	got := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		raws, _, err := db.WaitRawOps(ctx, 0, 0, codec.TabMark{})
		got <- result{raws, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := db.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-got:
		if res.err != nil || len(res.raws) != 1 || res.raws[0].Seq != 1 {
			t.Fatalf("woken WaitRawOps = %+v, err %v", res.raws, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitRawOps did not wake on commit")
	}
}

// TestWALOversizedRecordRotation is the rotation edge case: one journaled
// op whose encoded payload exceeds the segment byte limit must still
// append (the limit is a rotation threshold, not a record cap), rotate
// the segment afterwards, and recover cleanly from the kill-copied disk
// state.
func TestWALOversizedRecordRotation(t *testing.T) {
	const segLimit = 256
	opts := testOptions()
	opts.SegmentBytes = segLimit
	data := t.TempDir()
	cat, err := Open(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	// A single integrate whose source alone is several times the segment
	// limit, so its WAL record cannot fit into a fresh segment.
	big := "<addressbook><person><nm>" + strings.Repeat("Johannes ", 200) + "</nm></person></addressbook>"
	if len(big) < 4*segLimit {
		t.Fatalf("test document too small to exceed the segment limit")
	}
	if _, err := db.Core().IntegrateXMLString(big); err != nil {
		t.Fatalf("oversized op failed to append: %v", err)
	}
	st := db.Stats()
	if st.WAL.LastSeq != 1 {
		t.Fatalf("oversized op journaled as seq %d, want 1", st.WAL.LastSeq)
	}
	if st.WAL.Rotations != 1 {
		t.Fatalf("oversized op caused %d rotations, want exactly 1 (rotate after append)", st.WAL.Rotations)
	}
	// The record must be readable back through the shipping path.
	recs, err := db.OpsSince(0, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("OpsSince over oversized record: %d records, err %v", len(recs), err)
	}
	// Follow-up ops land in the fresh segment and keep the log dense.
	if _, err := db.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	want := db.Core().Tree()

	// Kill: copy the disk state with no clean shutdown, reopen, compare.
	killed := t.TempDir()
	copyDir(t, data, killed)
	cat2, err := Open(killed, opts)
	if err != nil {
		t.Fatalf("recovery after oversized record: %v", err)
	}
	defer cat2.Close()
	db2, err := cat2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(db2.Core().Tree().Root(), want.Root()) {
		t.Fatal("recovered tree differs after oversized-record rotation")
	}
	if db2.LastSeq() != 2 {
		t.Fatalf("recovered LastSeq = %d, want 2", db2.LastSeq())
	}
	cat.Close()
}

// TestApplyReplicatedSequencing covers the follower apply contract:
// in-order applies succeed, re-delivered sequences are skipped without
// effect, and a gap is ErrReplicaGap.
func TestApplyReplicatedSequencing(t *testing.T) {
	primary, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pdb, err := primary.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, pdb.Core())
	recs, err := pdb.OpsSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	follower, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	empty, err := xmlcodec.DecodeString("<addressbook/>")
	if err != nil {
		t.Fatal(err)
	}
	fdb, err := follower.InstallSnapshot("x", BootstrapSnapshot{Seq: 0, Tree: empty})
	if err != nil {
		t.Fatal(err)
	}

	// A gap (skipping seq 1) must be rejected before anything applies.
	if _, err := fdb.ApplyReplicated(recs[1]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap apply returned %v, want ErrReplicaGap", err)
	}
	for _, rec := range recs {
		applied, err := fdb.ApplyReplicated(rec)
		if err != nil {
			t.Fatalf("apply seq %d: %v", rec.Seq, err)
		}
		if !applied {
			t.Fatalf("apply seq %d reported skipped", rec.Seq)
		}
	}
	// Re-delivery of the whole stream is a no-op.
	before := fdb.Core().Tree()
	for _, rec := range recs {
		applied, err := fdb.ApplyReplicated(rec)
		if err != nil {
			t.Fatalf("re-apply seq %d: %v", rec.Seq, err)
		}
		if applied {
			t.Fatalf("re-apply seq %d was not skipped", rec.Seq)
		}
	}
	if fdb.Core().Tree() != before {
		t.Fatal("re-delivery mutated the tree")
	}
	assertConverged(t, pdb.Core(), fdb.Core())
}

// assertConverged checks the full acceptance bundle: structural tree
// equality, identical world counts, and identical session histories.
func assertConverged(t *testing.T, primary, follower *core.Database) {
	t.Helper()
	pt, ft := primary.Tree(), follower.Tree()
	if !pxml.Equal(pt.Root(), ft.Root()) {
		t.Fatal("follower tree is not pxml.Equal to the primary's")
	}
	if pt.WorldCount().Cmp(ft.WorldCount()) != 0 {
		t.Fatalf("world counts differ: primary %s, follower %s", pt.WorldCount(), ft.WorldCount())
	}
	// JSON form: time.Time's monotonic reading (present on the side that
	// called time.Now, absent after a wire round trip) must not count as
	// a diff.
	pfb, _ := json.Marshal(primary.FeedbackHistory())
	ffb, _ := json.Marshal(follower.FeedbackHistory())
	if string(pfb) != string(ffb) {
		t.Fatalf("feedback histories differ:\nprimary  %s\nfollower %s", pfb, ffb)
	}
	if primary.IntegrationCount() != follower.IntegrationCount() {
		t.Fatalf("integration counts differ: %d vs %d",
			primary.IntegrationCount(), follower.IntegrationCount())
	}
}

// TestFollowerCrashRestartEveryBoundary kills the follower at every op
// boundary of the replication stream — after the journaled apply, before
// any acknowledgment reaches the primary — restarts it from disk, and
// re-delivers the stream from one op back (exactly what a reconnecting
// tailer does). At every boundary the restart must resume from the
// durable lastApplied, skip the re-delivered op, and converge to a
// pxml.Equal tree with identical world count and no double-applied
// feedback history.
func TestFollowerCrashRestartEveryBoundary(t *testing.T) {
	primary, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pdb, err := primary.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, pdb.Core())
	recs, err := pdb.OpsSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for boundary := 0; boundary <= len(recs); boundary++ {
		t.Run(fmt.Sprintf("boundary=%d", boundary), func(t *testing.T) {
			dir := t.TempDir()
			follower, err := Open(dir, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			empty, err := xmlcodec.DecodeString("<addressbook/>")
			if err != nil {
				t.Fatal(err)
			}
			fdb, err := follower.InstallSnapshot("x", BootstrapSnapshot{Seq: 0, Tree: empty})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs[:boundary] {
				if _, err := fdb.ApplyReplicated(rec); err != nil {
					t.Fatalf("apply seq %d: %v", rec.Seq, err)
				}
			}
			// Kill between apply and ack: the catalog is abandoned without
			// compaction (testOptions disables it), so only the fsynced
			// WAL bytes survive — the exact disk state a kill -9 leaves.
			killed := t.TempDir()
			copyDir(t, dir, killed)
			follower.Close()

			restarted, err := Open(killed, testOptions())
			if err != nil {
				t.Fatalf("restart at boundary %d: %v", boundary, err)
			}
			defer restarted.Close()
			fdb2, err := restarted.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			if got := fdb2.LastSeq(); got != uint64(boundary) {
				t.Fatalf("restarted lastApplied = %d, want %d", got, boundary)
			}
			// Re-deliver from one op before the boundary, as a reconnect
			// that never saw the ack would: the overlap must be skipped.
			resume := boundary - 1
			if resume < 0 {
				resume = 0
			}
			for _, rec := range recs[resume:] {
				applied, err := fdb2.ApplyReplicated(rec)
				if err != nil {
					t.Fatalf("resume apply seq %d: %v", rec.Seq, err)
				}
				if applied != (rec.Seq > uint64(boundary)) {
					t.Fatalf("seq %d applied=%v at boundary %d", rec.Seq, applied, boundary)
				}
			}
			assertConverged(t, pdb.Core(), fdb2.Core())
		})
	}
}

// TestInstallSnapshotResets: installing over an existing (diverged)
// database discards its state, log and all, and resumes numbering at the
// snapshot position.
func TestInstallSnapshotResets(t *testing.T) {
	cat, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, db.Core())

	want, err := xmlcodec.DecodeString(abC)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := cat.InstallSnapshot("x", BootstrapSnapshot{Seq: 42, Tree: want})
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(db2.Core().Tree().Root(), want.Root()) {
		t.Fatal("installed tree differs from the snapshot")
	}
	if got := db2.LastSeq(); got != 42 {
		t.Fatalf("post-install LastSeq = %d, want the snapshot position 42", got)
	}
	if _, err := db2.OpsSince(0, 0); !errors.Is(err, ErrSeqGone) {
		t.Fatalf("pre-snapshot positions should be gone, got %v", err)
	}
	// The next mutation continues the primary numbering.
	if _, err := db2.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if got := db2.LastSeq(); got != 43 {
		t.Fatalf("post-install mutation journaled as %d, want 43", got)
	}
	dirs, err := filepath.Glob(filepath.Join(cat.Dir(), "x", walDirName, "seg-*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("expected fresh wal segments, got %v (err %v)", dirs, err)
	}
}
