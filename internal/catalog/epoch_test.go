package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pxml"
)

// frameBytes encodes one WAL record in the on-disk frame format
// ([len][crc32c][record]); each record's strtab delta is based at 0, so
// the frames concatenate in any order.
func frameBytes(t *testing.T, rec WALRecord) []byte {
	t.Helper()
	payload, err := EncodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(payload)
}

// rawFrame wraps payload in a CRC-valid frame.
func rawFrame(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderLen:], payload)
	return frame
}

// writeSegment hand-writes a WAL segment from records, optionally
// chopping chop bytes off the tail (a torn final write).
func writeSegment(t *testing.T, dir string, recs []WALRecord, chop int) {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		buf.Write(frameBytes(t, rec))
	}
	b := buf.Bytes()
	b = b[:len(b)-chop]
	if err := os.WriteFile(filepath.Join(dir, segName(recs[0].Seq)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALEpochCompat is the epoch table of recovery: epoch-0 logs recover
// as epoch 0, mixed epochs replay in order, regressions are corruption,
// records below the manifest epoch are corruption, and a torn tail still
// truncates rather than rejects.
func TestWALEpochCompat(t *testing.T) {
	op := testOp(0)
	cases := []struct {
		name      string
		recs      []WALRecord
		chop      int
		snapEpoch uint64
		wantN     int    // records replayed (when no error)
		wantEpoch uint64 // recovered wal epoch (when no error)
		wantErr   bool
	}{
		{
			// A log never promoted: every record at epoch 0.
			name:      "epoch-0",
			recs:      []WALRecord{{Seq: 1, Op: op}, {Seq: 2, Op: op}},
			wantN:     2,
			wantEpoch: 0,
		},
		{
			// A log spanning a promotion: epochs step up mid-stream.
			name:      "mixed-epochs-in-order",
			recs:      []WALRecord{{Seq: 1, Op: op}, {Seq: 2, Epoch: 1, Op: op}, {Seq: 3, Epoch: 1, Op: op}, {Seq: 4, Epoch: 3, Op: op}},
			wantN:     4,
			wantEpoch: 3,
		},
		{
			// Epochs are a fencing token: they never go backwards along a
			// log. A regression is corruption, not data.
			name:    "epoch-regression",
			recs:    []WALRecord{{Seq: 1, Epoch: 2, Op: op}, {Seq: 2, Epoch: 1, Op: op}},
			wantErr: true,
		},
		{
			// The manifest pinned epoch 2; a live record claiming epoch 1
			// cannot be a continuation of that state.
			name:      "record-below-manifest-epoch",
			recs:      []WALRecord{{Seq: 1, Epoch: 1, Op: op}},
			snapEpoch: 2,
			wantErr:   true,
		},
		{
			// Torn tail semantics are unchanged by the epoch field: the
			// valid prefix replays, the torn frame is truncated away.
			name:      "torn-tail-truncates",
			recs:      []WALRecord{{Seq: 1, Epoch: 1, Op: op}, {Seq: 2, Epoch: 1, Op: op}},
			chop:      3,
			wantN:     1,
			wantEpoch: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegment(t, dir, tc.recs, tc.chop)
			var got []WALRecord
			w, err := recoverWAL(dir, 0, 0, tc.snapEpoch, func(e WALRecord) error {
				got = append(got, e)
				return nil
			})
			if tc.wantErr {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("recoverWAL = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recoverWAL: %v", err)
			}
			defer w.close()
			if len(got) != tc.wantN {
				t.Fatalf("replayed %d records, want %d", len(got), tc.wantN)
			}
			if e := w.currentEpoch(); e != tc.wantEpoch {
				t.Fatalf("recovered epoch %d, want %d", e, tc.wantEpoch)
			}
			// The log must keep accepting appends, stamped at the
			// recovered epoch.
			seq, err := w.append(testOp(9))
			if err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if want := uint64(tc.wantN) + 1; seq != want {
				t.Fatalf("append seq %d, want %d", seq, want)
			}
		})
	}
}

// TestManifestV2Compat: a snapshot manifest in the layout of the release
// before epochs (format_version 2, no epoch key) no longer opens. Open
// refuses the whole catalog, naming the database and the version, and
// leaves the manifest as it found it — never a blank database at epoch 0.
func TestManifestV2Compat(t *testing.T) {
	dir := t.TempDir()
	cat, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	mPath := filepath.Join(dir, "x", stateDirName, "manifest.json")
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["format_version"] = 2
	delete(m, "epoch")
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cat2, err := Open(dir, testOptions())
	if err == nil {
		cat2.Close()
		t.Fatal("a v2 manifest opened")
	}
	for _, part := range []string{`"x"`, "format version 2"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q does not name %s", err, part)
		}
	}
	if after, err := os.ReadFile(mPath); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("the refused manifest changed (err %v)", err)
	}
}

// TestRaiseEpochDurable: a raised epoch survives reopen (the promotion
// fence must not evaporate in a crash right after promote), and every
// subsequent append is stamped with it.
func TestRaiseEpochDurable(t *testing.T) {
	dir := t.TempDir()
	cat, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if err := cat.RaiseEpoch(7); err != nil {
		t.Fatal(err)
	}
	if cat.Epoch() != 7 || db.Epoch() != 7 {
		t.Fatalf("epochs after raise: catalog %d, db %d, want 7", cat.Epoch(), db.Epoch())
	}
	// Raising is monotonic: a lower value is a no-op, not a regression.
	if err := cat.RaiseEpoch(3); err != nil {
		t.Fatal(err)
	}
	if cat.Epoch() != 7 {
		t.Fatalf("epoch regressed to %d", cat.Epoch())
	}
	if _, err := db.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	if cat2.Epoch() != 7 {
		t.Fatalf("reopened catalog at epoch %d, want 7", cat2.Epoch())
	}
	db2, err := cat2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if db2.Epoch() != 7 {
		t.Fatalf("reopened db at epoch %d, want 7", db2.Epoch())
	}
	// New databases are born at the catalog's epoch, never behind it.
	y, err := cat2.Create("y")
	if err != nil {
		t.Fatal(err)
	}
	if y.Epoch() != 7 {
		t.Fatalf("new db born at epoch %d, want 7", y.Epoch())
	}
}

// opIntegrate builds a shippable integrate op from source XML.
func opIntegrate(t *testing.T, src string) core.Op {
	t.Helper()
	return core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustTree(t, src)}}
}

// TestApplyReplicatedStaleEpoch: a shipped record from a lower epoch —
// the signature of a deposed primary — is refused with ErrStaleEpoch and
// leaves the local state untouched.
func TestApplyReplicatedStaleEpoch(t *testing.T) {
	cat, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyReplicated(WALRecord{Seq: 1, Op: opIntegrate(t, abA)}); err != nil {
		t.Fatal(err)
	}
	if err := db.RaiseEpoch(2); err != nil {
		t.Fatal(err)
	}
	before := db.Core().Tree().Digest()

	// Fresh seq, stale epoch: rejected, nothing applied.
	_, err = db.ApplyReplicated(WALRecord{Seq: 2, Epoch: 1, Op: opIntegrate(t, abB)})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale record: err = %v, want ErrStaleEpoch", err)
	}
	if db.LastSeq() != 1 || db.Core().Tree().Digest() != before {
		t.Fatal("stale record mutated local state")
	}

	// An already-applied seq stays a dup-skip regardless of its epoch:
	// retransmits of genuinely old records are not an error.
	applied, err := db.ApplyReplicated(WALRecord{Seq: 1, Op: opIntegrate(t, abA)})
	if err != nil || applied {
		t.Fatalf("dup record: applied=%v err=%v, want skip", applied, err)
	}

	// A record at the local epoch (the new primary shipping) applies.
	if _, err := db.ApplyReplicated(WALRecord{Seq: 2, Epoch: 2, Op: opIntegrate(t, abB)}); err != nil {
		t.Fatalf("current-epoch record: %v", err)
	}
	if db.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", db.LastSeq())
	}
}
