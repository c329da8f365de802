package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// refRecord is one record as the reference scan sees it: the frame's
// payload, its decode, and the table its segment had built before it.
type refRecord struct {
	payload []byte
	rec     WALRecord
	prefix  []string
}

// referenceLog is the read path without an index, kept here as the
// oracle: every live segment read whole from its first byte, every frame
// checked and decoded against the table its segment built so far. first
// is the oldest sequence on disk (the next one to be written when the log
// holds no record).
func referenceLog(t *testing.T, dir string) (first uint64, recs []refRecord) {
	t.Helper()
	starts, err := listSegments(dir)
	if err != nil || len(starts) == 0 {
		t.Fatalf("reference scan: segments %v, err %v", starts, err)
	}
	for _, start := range starts {
		data, err := os.ReadFile(filepath.Join(dir, segName(start)))
		if err != nil {
			t.Fatal(err)
		}
		var tab codec.StrTab
		for off := 0; off < len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
			if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("reference scan: bad checksum at %d of %s", off, segName(start))
			}
			prefix := slices.Clone(tab.Strings())
			rec, err := DecodeWALRecordShared(payload, &tab)
			if err != nil {
				t.Fatalf("reference scan: %s offset %d: %v", segName(start), off, err)
			}
			recs = append(recs, refRecord{payload, rec, prefix})
			off += frameHeaderLen + n
		}
	}
	for i, r := range recs {
		if r.rec.Seq != starts[0]+uint64(i) {
			t.Fatalf("reference scan: record %d has sequence %d, log starts at %d", i, r.rec.Seq, starts[0])
		}
	}
	return starts[0], recs
}

// canonical renders a record in the self-contained encoding, so that two
// decodes can be compared byte for byte.
func canonical(t *testing.T, rec WALRecord) []byte {
	t.Helper()
	b, err := EncodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkIndexedEqualsScan compares rawOpsSince with referenceLog at every
// position of w's log (one before the oldest record through one past the
// newest) and limits 1, 3 and 512: the same records with byte-equal
// payloads, the same prefix, the same WALRecords once decoded under it,
// ErrSeqGone exactly off either end. Each page is then asked for again
// the way a tailing follower does — holding the table the page before it
// left behind and naming its mark: whether or not the primary sends a
// prefix then, the follower's table must decode the page to the same
// records, and inside the active segment the prefix must not be sent.
func checkIndexedEqualsScan(t *testing.T, w *wal) {
	t.Helper()
	first, ref := referenceLog(t, w.dir)
	last := first + uint64(len(ref)) - 1
	if got := w.stats().LastSeq; got != last {
		t.Fatalf("log ends at %d, reference scan at %d", got, last)
	}
	w.mu.Lock()
	activeStart := w.segStarts[len(w.segStarts)-1]
	w.mu.Unlock()
	from := first - 1
	if from > 0 {
		from-- // one position compaction has made unservable
	}
	for after := from; after <= last+1; after++ {
		for _, limit := range []int{1, 3, 512} {
			raws, prefix, err := w.rawOpsSince(after, limit, codec.TabMark{})
			if after+1 < first || after > last {
				if !errors.Is(err, ErrSeqGone) {
					t.Fatalf("since %d (log %d..%d): err %v, want ErrSeqGone", after, first, last, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("since %d limit %d: %v", after, limit, err)
			}
			want := ref[after+1-first:]
			want = want[:min(limit, len(want))]
			if len(raws) != len(want) {
				t.Fatalf("since %d limit %d: %d records, reference %d", after, limit, len(raws), len(want))
			}
			if len(want) == 0 {
				continue
			}
			if !slices.Equal(prefix, want[0].prefix) {
				t.Fatalf("since %d limit %d: prefix of %d entries, reference %d", after, limit, len(prefix), len(want[0].prefix))
			}
			var fresh, carried codec.StrTab
			if err := fresh.Apply(0, prefix); err != nil {
				t.Fatal(err)
			}
			if err := carried.Apply(0, want[0].prefix); err != nil {
				t.Fatal(err)
			}
			again, resent, err := w.rawOpsSince(after, limit, carried.Mark())
			if err != nil || len(again) != len(raws) {
				t.Fatalf("since %d limit %d with a mark: %d records, err %v", after, limit, len(again), err)
			}
			if after+1 >= activeStart && len(resent) > 0 {
				t.Fatalf("since %d: %d prefix entries sent to a follower holding that table", after, len(resent))
			}
			if len(resent) > 0 {
				if err := carried.Apply(0, resent); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if raws[i].Seq != want[i].rec.Seq || raws[i].Epoch != want[i].rec.Epoch ||
					!bytes.Equal(raws[i].Payload, want[i].payload) || !bytes.Equal(again[i].Payload, want[i].payload) {
					t.Fatalf("since %d limit %d: record %d is not the reference's frame", after, limit, i)
				}
				for _, tab := range []*codec.StrTab{&fresh, &carried} {
					rec, err := DecodeWALRecordShared(raws[i].Payload, tab)
					if err != nil {
						t.Fatalf("since %d limit %d: record %d: %v", after, limit, i, err)
					}
					if !bytes.Equal(canonical(t, rec), canonical(t, want[i].rec)) {
						t.Fatalf("since %d limit %d: record %d decodes differently from the reference", after, limit, i)
					}
				}
			}
		}
	}
	// A mark of the right length and the wrong sum is not the table.
	if n := len(ref); n > 0 && len(ref[n-1].prefix) > 0 {
		wrong := codec.TabMark{}.Extend(ref[n-1].prefix)
		wrong.Sum++
		if _, prefix, err := w.rawOpsSince(last-1, 1, wrong); err != nil || !slices.Equal(prefix, ref[n-1].prefix) {
			t.Fatalf("wrong checksum: prefix of %d entries (err %v), want all %d", len(prefix), err, len(ref[n-1].prefix))
		}
	}
}

// TestIndexedReadEqualsScan is the property behind the indexed log tail:
// over random integrate / feedback / replace sequences on a database
// whose segments rotate every few records, through a compaction, a close
// and reopen that finds (and truncates) a torn tail, and a snapshot
// install, the indexed read path serves what a scan from the start of the
// segment serves.
func TestIndexedReadEqualsScan(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	names := []string{"John", "Mary", "Ann", "Bo", "Édith Piaf", ""}
	var rotations int64
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			doc := func() string {
				s := "<addressbook>"
				for i := rng.Intn(3); i >= 0; i-- {
					s += fmt.Sprintf("<person><nm>%s</nm><tel>%d</tel></person>", names[rng.Intn(len(names))], 1000+rng.Intn(4))
				}
				return s + "</addressbook>"
			}
			mutate := func(db *DB, n int) {
				for ; n > 0; n-- {
					// A judgment the document contradicts, or a source whose
					// persons cannot be matched up, is refused before it is
					// journaled; either outcome is a valid sequence.
					switch rng.Intn(4) {
					case 0:
						db.Core().Feedback("//person/tel", fmt.Sprint(1000+rng.Intn(4)), false)
					case 1:
						if err := db.Core().ReplaceTree(mustTree(t, doc())); err != nil {
							t.Fatal(err)
						}
					default:
						db.Core().IntegrateXMLString(doc())
					}
				}
			}
			dir := t.TempDir()
			opts := testOptions()
			opts.SegmentBytes = int64(70 + rng.Intn(300))
			cat, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { cat.Close() }()
			db, err := cat.Create("x")
			if err != nil {
				t.Fatal(err)
			}
			mutate(db, 4+rng.Intn(6))
			checkIndexedEqualsScan(t, db.wal)
			rotations += db.Stats().WAL.Rotations

			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			checkIndexedEqualsScan(t, db.wal)
			mutate(db, 1+rng.Intn(4))
			checkIndexedEqualsScan(t, db.wal)

			// Crash mid-append: the active segment ends in part of a frame.
			active := filepath.Join(db.wal.dir, segName(db.wal.segStarts[len(db.wal.segStarts)-1]))
			if err := cat.Close(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) > 0 {
				f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				torn := binary.LittleEndian.AppendUint32(nil, 64)
				f.Write(append(torn, make([]byte, 4+rng.Intn(40))...))
				f.Close()
			}
			if cat, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			if db, err = cat.Get("x"); err != nil {
				t.Fatal(err)
			}
			checkIndexedEqualsScan(t, db.wal)
			mutate(db, 1+rng.Intn(4))
			checkIndexedEqualsScan(t, db.wal)

			snap := BootstrapSnapshot{Seq: db.LastSeq() + uint64(rng.Intn(3)), Tree: db.Core().Tree()}
			if db, err = cat.InstallSnapshot("x", snap); err != nil {
				t.Fatal(err)
			}
			checkIndexedEqualsScan(t, db.wal)
			mutate(db, 1+rng.Intn(4))
			checkIndexedEqualsScan(t, db.wal)
		})
	}
	if rotations < int64(2*seeds) {
		t.Fatalf("%d rotations over %d seeds: the segments are too large to test boundaries", rotations, seeds)
	}
}

// TestShipCostIndependentOfSegment counts work instead of timing it:
// shipping the newest record of the active segment reads that record's
// frame and nothing else, whether 10 or 2 000 records precede it, and a
// follower 1 500 records behind reads, page by page, the frames of the
// records each page carries.
func TestShipCostIndependentOfSegment(t *testing.T) {
	var docs []core.Op
	for _, d := range []string{abA, abB, abC} {
		docs = append(docs, core.Op{Kind: core.OpReplace, TreeValue: mustTree(t, d)})
	}
	for _, n := range []int{10, 2000} {
		w, err := recoverWAL(t.TempDir(), 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		ends := []int64{0} // ends[i]: where record i's frame ends
		for i := 0; i < n; i++ {
			op := testOp(i)
			if i%3 == 0 {
				op = docs[i/3%len(docs)]
			}
			if _, err := w.append(op); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, w.stats().AppendedBytes)
		}
		page := func(after uint64, limit int) (records int, cost ShipStats) {
			before := w.stats().ShipStats
			raws, _, err := w.rawOpsSince(after, limit, codec.TabMark{})
			if err != nil {
				t.Fatal(err)
			}
			now := w.stats().ShipStats
			return len(raws), ShipStats{now.ShipPages - before.ShipPages, now.ShipScans - before.ShipScans, now.ShipReadBytes - before.ShipReadBytes}
		}
		if got, cost := page(uint64(n-1), 1); got != 1 || cost != (ShipStats{1, 0, ends[n] - ends[n-1]}) {
			t.Fatalf("%d records: shipping the newest cost %+v for %d record(s), its frame has %d bytes", n, cost, got, ends[n]-ends[n-1])
		}
		for at := max(n-1500, 0); at < n; {
			got, cost := page(uint64(at), 100)
			if got != min(100, n-at) || cost != (ShipStats{1, 0, ends[at+got] - ends[at]}) {
				t.Fatalf("%d records: page of %d since %d cost %+v, its frames have %d bytes", n, got, at, cost, ends[at+got]-ends[at])
			}
			at += got
		}
	}
}
