package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// testOp builds a distinguishable record (the Value field carries i).
func testOp(i int) core.Op {
	return core.Op{Kind: core.OpFeedback, Query: "//x", Value: string(rune('a' + i%26)), Correct: i%2 == 0}
}

// collect replays a log into a slice.
func collect(t *testing.T, dir string, after uint64) ([]WALRecord, *wal) {
	t.Helper()
	var got []WALRecord
	w, err := recoverWAL(dir, 0, after, 0, func(e WALRecord) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("recoverWAL: %v", err)
	}
	return got, w
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := recoverWAL(dir, 0, 0, 0, nil)
	if err != nil {
		t.Fatalf("recoverWAL (fresh): %v", err)
	}
	for i := 0; i < 10; i++ {
		seq, err := w.append(testOp(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, w2 := collect(t, dir, 0)
	defer w2.close()
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || e.Op.Value != testOp(i).Value {
			t.Fatalf("record %d = %+v", i, e)
		}
	}
	// Replay resumes correctly from a watermark.
	tail, w3 := collect(t, dir, 7)
	defer w3.close()
	if len(tail) != 3 || tail[0].Seq != 8 {
		t.Fatalf("tail replay = %+v", tail)
	}
	if w3.stats().LastSeq != 10 {
		t.Fatalf("LastSeq = %d", w3.stats().LastSeq)
	}
}

func TestWALRotationAndDropThrough(t *testing.T) {
	dir := t.TempDir()
	w, err := recoverWAL(dir, 64, 0, 0, nil) // tiny limit: every record rotates
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.append(testOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := w.stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, segments = %d", st.Segments)
	}
	// Everything up to 4 is snapshotted: segments fully below survive
	// only if they hold newer records.
	if _, err := w.dropThrough(4); err != nil {
		t.Fatal(err)
	}
	w.close()
	got, w2 := collect(t, dir, 4)
	defer w2.close()
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("post-drop tail = %+v", got)
	}
	// Appending after recovery continues the numbering.
	seq, err := w2.append(testOp(7))
	if err != nil || seq != 7 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _ := recoverWAL(dir, 0, 0, 0, nil)
	for i := 0; i < 3; i++ {
		if _, err := w.append(testOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last record in half: a torn tail, not corruption.
	if err := os.WriteFile(seg, data[:len(data)-len(data)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, w2 := collect(t, dir, 0)
	defer w2.close()
	if len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
	// The file was physically truncated back to the committed prefix.
	info, _ := os.Stat(seg)
	var epochSeen uint64
	var tab codec.StrTab
	if _, _, err := replaySegment(seg, 1, true, 0, 0, &epochSeen, &tab, new([]segEntry), nil); err != nil {
		t.Fatalf("re-scan after truncation: %v", err)
	}
	if next, err := w2.append(testOp(9)); err != nil || next != 3 {
		t.Fatalf("append after truncation: seq=%d err=%v (file %d bytes)", next, err, info.Size())
	}
}

func TestWALMidLogCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	w, _ := recoverWAL(dir, 64, 0, 0, nil) // force multiple segments
	for i := 0; i < 4; i++ {
		if _, err := w.append(testOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	// Flip a payload byte in the FIRST segment: truncation cannot repair
	// committed history, so this must refuse to load.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = recoverWAL(dir, 64, 0, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWALFreshStartsAfterSnapshotSeq(t *testing.T) {
	// A snapshot at seq 41 with no (or a removed) log must number new
	// records from 42, or later recoveries would skip them.
	dir := t.TempDir()
	w, err := recoverWAL(dir, 0, 41, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.append(testOp(0))
	if err != nil || seq != 42 {
		t.Fatalf("seq = %d, err = %v, want 42", seq, err)
	}
	w.close()
	got, w2 := collect(t, dir, 41)
	defer w2.close()
	if len(got) != 1 || got[0].Seq != 42 {
		t.Fatalf("replay = %+v", got)
	}
}

func TestWALBehindSnapshotRepairSurvivesReopen(t *testing.T) {
	// A log whose newest record is older than the snapshot (tail removed
	// out of band) is repaired by dropping the covered segments and
	// resuming after the snapshot — and, critically, the repaired log
	// must open cleanly again: the repair must not leave a sequence gap.
	dir := t.TempDir()
	w, err := recoverWAL(dir, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.append(testOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	// Snapshot claims seq 5 > 2: first open repairs.
	w2, err := recoverWAL(dir, 0, 5, 0, nil)
	if err != nil {
		t.Fatalf("repair open: %v", err)
	}
	seq, err := w2.append(testOp(0))
	if err != nil || seq != 6 {
		t.Fatalf("append after repair: seq=%d err=%v, want 6", seq, err)
	}
	w2.close()
	// Second open of the repaired log: no gap, no ErrCorrupt.
	got, w3 := collect(t, dir, 5)
	defer w3.close()
	if len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("replay after repaired reopen = %+v", got)
	}
}

// TestRecoverRefusesUnreadableRecord: a committed (CRC-valid) frame this
// build cannot decode — a JSON record, an older or a newer binary
// version, a readable header over a corrupted body, a version 4 record
// over an arena revision this build does not know — stops recovery with
// ErrCorrupt naming the segment, the offset and the cause. It is never
// mistaken for a torn tail: the segment keeps every byte.
func TestRecoverRefusesUnreadableRecord(t *testing.T) {
	rec, err := EncodeWALRecord(WALRecord{Seq: 3, Op: testOp(2)})
	if err != nil {
		t.Fatal(err)
	}
	withVersion := func(v byte) []byte {
		p := append([]byte(nil), rec...)
		p[1] = v
		return p
	}
	header := func(v byte) []byte {
		return []byte{walBinaryMarker, v, 3, 0} // seq 3, epoch 0
	}
	// A version 3 header, an empty strtab delta and an op kind no build
	// ever wrote.
	badBody := append(header(walRecordVersion), 0, 0, 99)
	// A version 4 replace whose tree claims arena revision 9.
	var tab codec.SharedStrings
	tree := mustTree(t, abA).AppendBinaryShared(nil, &tab)
	tree[0] = 9
	arena9 := tab.AppendDelta(header(walRecordCompact), 0)
	arena9 = append(arena9, opKindCodes[core.OpReplace], treeReprArenaShared)
	arena9 = codec.AppendBytes(arena9, tree)
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"json", "byte 0x7b", []byte(`{"seq":3,"op":{"kind":"normalize"}}`)},
		{"version-2", "version 2", withVersion(2)},
		{"version-9", "version 9", withVersion(9)},
		{"corrupt-body", "unknown op kind", badBody},
		{"arena-9", "binary document version 9", arena9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := recoverWAL(dir, 0, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := w.append(testOp(i)); err != nil {
					t.Fatal(err)
				}
			}
			w.close()
			seg := filepath.Join(dir, segName(1))
			good, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			bad := append(good, rawFrame(tc.payload)...)
			if err := os.WriteFile(seg, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = recoverWAL(dir, 0, 0, 0, func(WALRecord) error { return nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recoverWAL = %v, want ErrCorrupt", err)
			}
			for _, part := range []string{tc.want, fmt.Sprintf("offset %d", len(good)), segName(1)} {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("error %q does not name %q", err, part)
				}
			}
			after, err := os.ReadFile(seg)
			if err != nil || len(after) != len(bad) {
				t.Fatalf("segment is %d bytes after recovery (err %v), want %d", len(after), err, len(bad))
			}
		})
	}
}
