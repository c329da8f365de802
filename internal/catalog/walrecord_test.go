package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

// mustTree decodes marker XML into a tree or fails the test.
func mustTree(t *testing.T, xml string) *pxml.Tree {
	t.Helper()
	tree, err := xmlcodec.DecodeString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// sampleRecords builds one record per op kind, plus an integrate record
// carrying its recorded stats.
func sampleRecords(t *testing.T) []WALRecord {
	t.Helper()
	when := time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.FixedZone("X", 3600))
	return []WALRecord{
		{Seq: 1, Epoch: 0, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustTree(t, abA)}}},
		{Seq: 2, Epoch: 1, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustTree(t, abC)},
			Stats: []integrate.Stats{{OracleCalls: 7, UndecidedPairs: 3, SplicedChildren: 2}}}},
		{Seq: 3, Epoch: 1, Op: core.Op{Kind: core.OpBatch, SourceTrees: []*pxml.Tree{mustTree(t, abA), mustTree(t, abB)}}},
		{Seq: 4, Epoch: 2, Op: core.Op{Kind: core.OpFeedback, Query: "//person/tel", Value: "1111", Correct: true, When: when}},
		{Seq: 5, Epoch: 2, Op: core.Op{Kind: core.OpNormalize}},
		{Seq: 6, Epoch: 2, Op: core.Op{Kind: core.OpReplace, TreeValue: mustTree(t, abB)}},
		{Seq: 7, Epoch: 3, Op: core.Op{Kind: core.OpLoad, TreeValue: mustTree(t, abC), Schema: "<!ELEMENT addressbook (person*)>",
			Integrations: []integrate.Stats{{OracleCalls: 4, Components: 1}},
			Events:       []feedback.Event{{Query: "//q", Value: "v", PriorP: 0.5, WorldsBefore: big.NewInt(4), WorldsAfter: big.NewInt(2), When: when}}}},
	}
}

// opTrees returns the trees an op carries.
func opTrees(op core.Op) []*pxml.Tree {
	out := append([]*pxml.Tree(nil), op.SourceTrees...)
	if op.TreeValue != nil {
		out = append(out, op.TreeValue)
	}
	return out
}

// TestWALRecordBinaryRoundTrip drives every op kind through a record
// that stands alone and back, checking fields and documents survive.
func TestWALRecordBinaryRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords(t) {
		payload, err := EncodeWALRecord(rec)
		if err != nil {
			t.Fatalf("seq %d: encode: %v", rec.Seq, err)
		}
		if payload[0] != walBinaryMarker || payload[1] != walRecordVersion {
			t.Fatalf("seq %d: header %#x %#x", rec.Seq, payload[0], payload[1])
		}
		got, err := DecodeWALRecord(payload)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", rec.Seq, err)
		}
		if got.Seq != rec.Seq || got.Epoch != rec.Epoch || got.Op.Kind != rec.Op.Kind {
			t.Fatalf("seq %d: round trip = %+v", rec.Seq, got)
		}
		if seq, epoch, err := peekRecordHeader(payload); err != nil || seq != rec.Seq || epoch != rec.Epoch {
			t.Fatalf("seq %d: peek = %d/%d, %v", rec.Seq, seq, epoch, err)
		}
		wantTrees, gotTrees := opTrees(rec.Op), opTrees(got.Op)
		if len(wantTrees) != len(gotTrees) {
			t.Fatalf("seq %d: %d trees round-tripped to %d", rec.Seq, len(wantTrees), len(gotTrees))
		}
		for i := range wantTrees {
			if !pxml.Equal(wantTrees[i].Root(), gotTrees[i].Root()) {
				t.Fatalf("seq %d: tree %d differs after round trip", rec.Seq, i)
			}
		}
		if fmt.Sprint(got.Op.Stats) != fmt.Sprint(rec.Op.Stats) {
			t.Fatalf("seq %d: stats %+v round-tripped to %+v", rec.Seq, rec.Op.Stats, got.Op.Stats)
		}
		switch rec.Op.Kind {
		case core.OpFeedback:
			if got.Op.Query != rec.Op.Query || got.Op.Value != rec.Op.Value || got.Op.Correct != rec.Op.Correct {
				t.Fatalf("seq %d: feedback fields = %+v", rec.Seq, got.Op)
			}
			if !got.Op.When.Equal(rec.Op.When) {
				t.Fatalf("seq %d: When %v != %v", rec.Seq, got.Op.When, rec.Op.When)
			}
		case core.OpLoad:
			if got.Op.Schema != rec.Op.Schema {
				t.Fatalf("seq %d: schema %q", rec.Seq, got.Op.Schema)
			}
			if len(got.Op.Integrations) != len(rec.Op.Integrations) || len(got.Op.Events) != len(rec.Op.Events) {
				t.Fatalf("seq %d: histories = %d/%d", rec.Seq, len(got.Op.Integrations), len(got.Op.Events))
			}
			if got.Op.Integrations[0].OracleCalls != 4 || got.Op.Events[0].WorldsBefore.Cmp(big.NewInt(4)) != 0 {
				t.Fatalf("seq %d: history contents = %+v %+v", rec.Seq, got.Op.Integrations[0], got.Op.Events[0])
			}
		}
	}
}

// TestWALRecordSharedRoundTrip drives every op kind through one running
// string table: the replayed StrTab decodes them in order, the table
// converges with the append side, the stream is smaller than the same
// records standing alone, and a mid-table record replayed out of order
// is refused rather than misread.
func TestWALRecordSharedRoundTrip(t *testing.T) {
	var shared codec.SharedStrings
	recs := sampleRecords(t)
	var payloads [][]byte
	var sharedBytes, selfBytes int
	for _, rec := range recs {
		payload, err := EncodeWALRecordShared(rec, &shared)
		if err != nil {
			t.Fatalf("seq %d: encode shared: %v", rec.Seq, err)
		}
		if payload[0] != walBinaryMarker || payload[1] != walRecordVersion {
			t.Fatalf("seq %d: header %#x %#x", rec.Seq, payload[0], payload[1])
		}
		payloads = append(payloads, payload)
		sharedBytes += len(payload)
		self, err := EncodeWALRecord(rec)
		if err != nil {
			t.Fatalf("seq %d: encode self-contained: %v", rec.Seq, err)
		}
		selfBytes += len(self)
	}
	var tab codec.StrTab
	for i, payload := range payloads {
		rec := recs[i]
		got, err := DecodeWALRecordShared(payload, &tab)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", rec.Seq, err)
		}
		if got.Seq != rec.Seq || got.Epoch != rec.Epoch || got.Op.Kind != rec.Op.Kind {
			t.Fatalf("seq %d: round trip = %+v", rec.Seq, got)
		}
		wantTrees, gotTrees := opTrees(rec.Op), opTrees(got.Op)
		if len(wantTrees) != len(gotTrees) {
			t.Fatalf("seq %d: %d trees round-tripped to %d", rec.Seq, len(wantTrees), len(gotTrees))
		}
		for j := range wantTrees {
			if !pxml.Equal(wantTrees[j].Root(), gotTrees[j].Root()) {
				t.Fatalf("seq %d: tree %d differs after round trip", rec.Seq, j)
			}
		}
	}
	if tab.Len() != shared.Len() || tab.Len() == 0 {
		t.Fatalf("replayed table holds %d entries, append side %d", tab.Len(), shared.Len())
	}
	if sharedBytes >= selfBytes {
		t.Fatalf("shared stream is not smaller: %d vs %d self-contained bytes", sharedBytes, selfBytes)
	}
	// A record whose delta is based mid-table cannot decode against a
	// fresh table: desynchronization is an error, never a misread.
	var fresh codec.StrTab
	if _, err := DecodeWALRecordShared(payloads[len(payloads)-1], &fresh); err == nil {
		t.Fatal("mid-table record decoded against an empty table")
	}
}

// TestWALStrTabReseedAcrossReopen: recovery reseeds the append-side
// table from the live segment's replayed deltas, so appends after a
// reopen extend the same table the existing records reference.
func TestWALStrTabReseedAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := recoverWAL(dir, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{abA, abB, abC}
	treeOp := func(i int) core.Op {
		return core.Op{Kind: core.OpReplace, TreeValue: mustTree(t, docs[i%len(docs)])}
	}
	for i := 0; i < 3; i++ {
		if _, err := w.append(treeOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries := w.stats().StrTabEntries
	if entries == 0 {
		t.Fatal("fresh appends interned no strings")
	}
	w.close()
	got, w2 := collect(t, dir, 0)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if reseeded := w2.stats().StrTabEntries; reseeded != entries {
		t.Fatalf("recovery reseeded %d strtab entries, append side left %d", reseeded, entries)
	}
	// So is the segment index: recovery's scan rebuilt it.
	checkIndexedEqualsScan(t, w2)
	for i := 3; i < 6; i++ {
		if _, err := w2.append(treeOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Entries appended onto a rebuilt index continue it.
	checkIndexedEqualsScan(t, w2)
	w2.close()
	all, w3 := collect(t, dir, 0)
	defer w3.close()
	if len(all) != 6 {
		t.Fatalf("replayed %d records after reopen-append, want 6", len(all))
	}
	checkIndexedEqualsScan(t, w3)
	for i, e := range all {
		want := mustTree(t, docs[i%len(docs)])
		if e.Seq != uint64(i+1) || e.Op.TreeValue == nil || !pxml.Equal(e.Op.TreeValue.Root(), want.Root()) {
			t.Fatalf("record %d = %+v", i, e)
		}
	}
}

// TestWALRecordRejectsCorruption: every truncation and a sweep of bit
// flips of a binary payload must error, never panic or succeed silently
// wrong (flips inside a tree field are caught by the arena digest).
func TestWALRecordRejectsCorruption(t *testing.T) {
	rec := WALRecord{Seq: 3, Epoch: 1, Op: core.Op{Kind: core.OpBatch, SourceTrees: []*pxml.Tree{mustTree(t, abA), mustTree(t, abB)}}}
	payload, err := EncodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeWALRecord(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	for i := 1; i < len(payload); i += 3 {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x40
		got, err := DecodeWALRecord(mut)
		if err != nil {
			continue
		}
		// A surviving flip must not have corrupted a document: the decoded
		// trees must still be one of the originals or the header fields
		// differ visibly. Verify the trees validate at minimum.
		for _, tr := range got.Op.SourceTrees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("flip at %d decoded an invalid tree: %v", i, err)
			}
		}
	}
}

// TestWALRecordImplausibleSourceCount: a forged source count larger than
// the remaining payload is rejected before any allocation.
func TestWALRecordImplausibleSourceCount(t *testing.T) {
	payload := []byte{walBinaryMarker, walRecordVersion}
	payload = codec.AppendUvarint(payload, 1)            // seq
	payload = codec.AppendUvarint(payload, 0)            // epoch
	payload = codec.AppendStrTabPayload(payload, 0, nil) // empty strtab delta
	payload = append(payload, opKindCodes[core.OpIntegrate])
	payload = codec.AppendUvarint(payload, 1<<40) // sources
	if _, err := DecodeWALRecord(payload); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("forged source count: err = %v", err)
	}
}

// TestWALRecordJSONDispatch: a JSON payload (first byte '{'), the record
// layout of early builds, goes through the same entry points as every
// record and is refused by name — never decoded as a binary record.
func TestWALRecordJSONDispatch(t *testing.T) {
	payload := []byte(`{"seq":9,"epoch":2,"op":{"kind":"integrate","sources":["` + abA + `"]}}`)
	if _, err := DecodeWALRecord(payload); err == nil || !strings.Contains(err.Error(), "byte 0x7b") {
		t.Fatalf("decode JSON payload: err = %v", err)
	}
	if _, _, err := peekRecordHeader(payload); err == nil || !strings.Contains(err.Error(), "byte 0x7b") {
		t.Fatalf("peek JSON payload: err = %v", err)
	}
	if _, _, err := peekRecordDelta(payload); err == nil {
		t.Fatal("peekRecordDelta accepted a JSON payload")
	}
}

// TestWALMixedEncodingLog: a log whose first records an earlier build
// appended (the people log of testdata/datadir) and whose tail this build
// appends replays seamlessly — each record's string-table delta builds on
// the table of the records before it, whichever build wrote them.
func TestWALMixedEncodingLog(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "datadir", "people", walDirName), dir)
	old, w := collect(t, dir, 0)
	if len(old) != 2 || old[0].Op.Kind != core.OpReplace || old[1].Op.Kind != core.OpIntegrate {
		t.Fatalf("earlier build's records = %+v", old)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.append(core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustTree(t, abC)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	got, w2 := collect(t, dir, 0)
	defer w2.close()
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	want := mustTree(t, abC)
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, e.Seq)
		}
		if i >= 2 && (len(e.Op.SourceTrees) != 1 || !pxml.Equal(e.Op.SourceTrees[0].Root(), want.Root())) {
			t.Fatalf("appended record %d = %+v", i, e)
		}
	}
	if old[1].Op.SourceTrees[0].Digest() != got[1].Op.SourceTrees[0].Digest() {
		t.Fatal("the earlier build's integrate decodes differently once the log grew")
	}
	// The read path (shipping) sees the same five records.
	recs, err := w2.opsSince(0, 0)
	if err != nil || len(recs) != 5 {
		t.Fatalf("opsSince over the mixed log: %d records, err %v", len(recs), err)
	}
}

// FuzzDecodeWALRecord: arbitrary bytes must produce an error or a valid
// record — never a panic and never an unvalidated tree.
func FuzzDecodeWALRecord(f *testing.F) {
	tree, err := xmlcodec.DecodeString(abA)
	if err != nil {
		f.Fatal(err)
	}
	var shared codec.SharedStrings
	for _, rec := range []WALRecord{
		{Seq: 1, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{tree}}},
		{Seq: 2, Epoch: 1, Op: core.Op{Kind: core.OpReplace, TreeValue: tree}},
	} {
		if payload, err := EncodeWALRecordShared(rec, &shared); err == nil {
			f.Add(payload) // the second is based mid-table
		}
	}
	if payload, err := EncodeWALRecord(WALRecord{Seq: 3, Epoch: 1, Op: core.Op{Kind: core.OpBatch, SourceTrees: []*pxml.Tree{tree, tree}}}); err == nil {
		f.Add(payload)
	}
	f.Add([]byte{walBinaryMarker, walRecordVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		for _, tr := range got.Op.SourceTrees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted record carries invalid source: %v", err)
			}
		}
		if got.Op.TreeValue != nil {
			if err := got.Op.TreeValue.Validate(); err != nil {
				t.Fatalf("accepted record carries invalid tree: %v", err)
			}
		}
	})
}

// queueRecord hand-builds a record of one of the removed async ingest
// queue kinds as earlier builds wrote it: an enqueue (kind 7) carries a
// ticket and its source trees, an apply-queued (kind 8) the applied,
// failed and failure-reason lists and a stats blob.
func queueRecord(t *testing.T, seq uint64, code byte) []byte {
	t.Helper()
	var tab codec.SharedStrings
	var body []byte
	switch code {
	case 7:
		body = codec.AppendString(body, "t1")
		var err error
		if body, err = appendSources(body, []*pxml.Tree{mustTree(t, abB)}, &tab); err != nil {
			t.Fatal(err)
		}
	case 8:
		body = codec.AppendUvarint(body, 1)
		body = codec.AppendString(body, "t1")
		body = codec.AppendUvarint(body, 0)
		body = codec.AppendUvarint(body, 0)
		body = codec.AppendBytes(body, nil)
	}
	p := []byte{walBinaryMarker, walRecordVersion}
	p = codec.AppendUvarint(p, seq)
	p = codec.AppendUvarint(p, 0)
	p = tab.AppendDelta(p, 0)
	p = append(p, code)
	return append(p, body...)
}

// TestWALRecordQueueRoundTrip: the stats blob on an integrate record
// survives the record format, while a record of either removed queue
// kind — enqueue and apply-queued — fails to decode with errRemovedOp
// naming its sequence and kind, not as an unknown op kind code.
func TestWALRecordQueueRoundTrip(t *testing.T) {
	stats := []integrate.Stats{{OracleCalls: 7, UndecidedPairs: 3, SplicedChildren: 2}}
	rec := WALRecord{Seq: 14, Epoch: 3, Op: core.Op{Kind: core.OpIntegrate,
		SourceTrees: []*pxml.Tree{mustTree(t, abA)}, Stats: stats}}
	payload, err := EncodeWALRecord(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeWALRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != rec.Seq || got.Op.Kind != rec.Op.Kind || len(got.Op.SourceTrees) != 1 ||
		!pxml.Equal(got.Op.SourceTrees[0].Root(), rec.Op.SourceTrees[0].Root()) {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.Op.Stats) != 1 || got.Op.Stats[0] != stats[0] {
		t.Fatalf("stats %+v round-tripped to %+v", stats, got.Op.Stats)
	}
	for code, want := range map[byte]string{7: "record 5 is an enqueue record", 8: "record 5 is an apply-queued record"} {
		_, err := DecodeWALRecord(queueRecord(t, 5, code))
		if !errors.Is(err, errRemovedOp) || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "async ingest queue, removed") {
			t.Fatalf("kind %d: decode = %v, want errRemovedOp naming %q", code, err, want)
		}
	}
}

// TestWALRecordRetiredStatsFields: logs written while integration had a
// cross-call memo carry VerdictMemoHits and MergeMemoHits in their stats
// blobs. A hand-built integrate record with those keys still decodes,
// the keys ignored and every kept counter intact. And new records keep
// the size of the old: they write every counter, then the two retired
// keys as zeros.
func TestWALRecordRetiredStatsFields(t *testing.T) {
	const blob = `[{"OracleCalls":7,"UndecidedPairs":4,"VerdictMemoHits":3,"MergeMemoHits":1,"SplicedChildren":2}]`
	want := integrate.Stats{OracleCalls: 7, UndecidedPairs: 4, SplicedChildren: 2}
	layout := `[{"OracleCalls":7,"MustPairs":0,"CannotPairs":0,"UndecidedPairs":4,"Components":0,"LargestComponent":0,` +
		`"MatchingsEnumerated":0,"MatchingsPruned":0,"PossibilitiesBuilt":0,"IncompatibleMerges":0,"TruncatedComponents":0,` +
		`"ValueConflicts":0,"SplicedChildren":2,"VerdictMemoHits":0,"MergeMemoHits":0}]`
	if got, err := json.Marshal([]integrate.Stats{want}); err != nil || string(got) != layout {
		t.Fatalf("stats blob %s, %v; want %s", got, err, layout)
	}

	var tab codec.SharedStrings
	source, err := appendTree(nil, mustTree(t, abA), &tab)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{walBinaryMarker, walRecordVersion}
	payload = codec.AppendUvarint(payload, 31)
	payload = codec.AppendUvarint(payload, 2)
	payload = tab.AppendDelta(payload, 0)
	payload = append(payload, opKindCodes[core.OpIntegrate])
	payload = codec.AppendUvarint(payload, 1)
	payload = append(payload, source...)
	payload = codec.AppendBytes(payload, []byte(blob))

	got, err := DecodeWALRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != 31 || got.Op.Kind != core.OpIntegrate || len(got.Op.Stats) != 1 || got.Op.Stats[0] != want {
		t.Fatalf("decoded %+v, stats %+v; want stats %+v", got, got.Op.Stats, want)
	}
	if trees := opTrees(got.Op); len(trees) != 1 || !pxml.Equal(trees[0].Root(), mustTree(t, abA).Root()) {
		t.Fatal("source did not survive")
	}
}
