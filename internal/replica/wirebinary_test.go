package replica_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/replica"
	"repro/internal/server"
)

// wireTrees collects the document(s) an op carries.
func wireTrees(op core.Op) []*pxml.Tree {
	out := append([]*pxml.Tree(nil), op.SourceTrees...)
	if op.TreeValue != nil {
		out = append(out, op.TreeValue)
	}
	return out
}

// TestWALPageBinaryRoundTrip drives a page of records of several op kinds
// through the binary wire stream and back.
func TestWALPageBinaryRoundTrip(t *testing.T) {
	when := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	page := &replica.WALPage{
		Database: "x",
		Since:    3,
		LastSeq:  6,
		Digest:   "00c0ffee00c0ffee",
		Epoch:    2,
		Records: []catalog.WALRecord{
			{Seq: 4, Epoch: 1, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustDecode(t, abA)}}},
			{Seq: 5, Epoch: 2, Op: core.Op{Kind: core.OpFeedback, Query: "//person/tel", Value: "1111", Correct: true, When: when}},
			{Seq: 6, Epoch: 2, Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abB)}},
		},
	}
	var buf bytes.Buffer
	if err := replica.EncodeWALPage(&buf, page); err != nil {
		t.Fatal(err)
	}
	got, err := replica.DecodeWALPage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Database != page.Database || got.Since != page.Since ||
		got.LastSeq != page.LastSeq || got.Digest != page.Digest || got.Epoch != page.Epoch {
		t.Fatalf("page header round trip = %+v", got)
	}
	if len(got.Records) != len(page.Records) {
		t.Fatalf("%d records round-tripped to %d", len(page.Records), len(got.Records))
	}
	for i, rec := range got.Records {
		want := page.Records[i]
		if rec.Seq != want.Seq || rec.Epoch != want.Epoch || rec.Op.Kind != want.Op.Kind {
			t.Fatalf("record %d = %+v", i, rec)
		}
		wt, gt := wireTrees(want.Op), wireTrees(rec.Op)
		if len(wt) != len(gt) {
			t.Fatalf("record %d: %d trees became %d", i, len(wt), len(gt))
		}
		for j := range wt {
			if !pxml.Equal(wt[j].Root(), gt[j].Root()) {
				t.Fatalf("record %d tree %d differs after round trip", i, j)
			}
		}
	}
	if fb := got.Records[1].Op; fb.Query != "//person/tel" || fb.Value != "1111" || !fb.Correct || !fb.When.Equal(when) {
		t.Fatalf("feedback record round trip = %+v", fb)
	}
}

// TestRawWALPageRoundTrip: the zero-re-encode primary path — raw
// payload bytes straight off the log — produces a stream the standard
// decoder reads back record by record.
func TestRawWALPageRoundTrip(t *testing.T) {
	recs := []catalog.WALRecord{
		{Seq: 4, Epoch: 1, Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abA)}},
		{Seq: 5, Epoch: 1, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustDecode(t, abB)}}},
	}
	var raws []catalog.RawWALRecord
	for _, rec := range recs {
		payload, err := catalog.EncodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, catalog.RawWALRecord{Seq: rec.Seq, Epoch: rec.Epoch, Payload: payload})
	}
	page := &replica.WALPage{Database: "x", Since: 3, LastSeq: 5, Digest: "d", Epoch: 1}
	var buf bytes.Buffer
	if err := replica.EncodeRawWALPage(&buf, page, raws, nil); err != nil {
		t.Fatal(err)
	}
	got, err := replica.DecodeWALPage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Database != "x" || got.LastSeq != 5 || len(got.Records) != 2 {
		t.Fatalf("raw page round trip = %+v", got)
	}
	if r := got.Records[0]; r.Seq != 4 || r.Op.Kind != core.OpReplace ||
		r.Op.TreeValue == nil || !pxml.Equal(r.Op.TreeValue.Root(), mustDecode(t, abA).Root()) {
		t.Fatalf("replace raw record = %+v", r)
	}
	if r := got.Records[1]; r.Seq != 5 || r.Op.Kind != core.OpIntegrate ||
		len(r.Op.SourceTrees) != 1 || !pxml.Equal(r.Op.SourceTrees[0].Root(), mustDecode(t, abB).Root()) {
		t.Fatalf("integrate raw record = %+v", r)
	}
}

// TestRawWALPagePrefixRoundTrip: a v3 raw record whose strtab delta is
// based past records the page does not ship decodes only because the
// page opens with the prefix I frame; without the prefix, the same
// payload must be rejected, never misread.
func TestRawWALPagePrefixRoundTrip(t *testing.T) {
	var shared codec.SharedStrings
	// A record the follower already has: its strings are interned, so the
	// shipped record's delta is based past them.
	skipped := catalog.WALRecord{Seq: 3, Epoch: 1,
		Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abA)}}
	if _, err := catalog.EncodeWALRecordShared(skipped, &shared); err != nil {
		t.Fatal(err)
	}
	prefix := append([]string(nil), shared.Strings()...)
	if len(prefix) == 0 {
		t.Fatal("skipped record interned no strings")
	}
	rec := catalog.WALRecord{Seq: 4, Epoch: 1,
		Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abC)}}
	payload, err := catalog.EncodeWALRecordShared(rec, &shared)
	if err != nil {
		t.Fatal(err)
	}
	raws := []catalog.RawWALRecord{{Seq: 4, Epoch: 1, Payload: payload}}
	page := &replica.WALPage{Database: "x", Since: 3, LastSeq: 4, Digest: "d", Epoch: 1}

	var buf bytes.Buffer
	if err := replica.EncodeRawWALPage(&buf, page, raws, prefix); err != nil {
		t.Fatal(err)
	}
	got, err := replica.DecodeWALPage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 {
		t.Fatalf("round trip carried %d records", len(got.Records))
	}
	if r := got.Records[0]; r.Seq != 4 || r.Op.TreeValue == nil ||
		!pxml.Equal(r.Op.TreeValue.Root(), mustDecode(t, abC).Root()) {
		t.Fatalf("prefixed raw record = %+v", r)
	}

	// The same stream without the prefix frame desynchronizes the page
	// table: decode must fail.
	var bare bytes.Buffer
	if err := replica.EncodeRawWALPage(&bare, page, raws, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.DecodeWALPage(bytes.NewReader(bare.Bytes())); err == nil {
		t.Fatal("mid-table record decoded without its prefix frame")
	}
}

// tailPage is a wal2 page the way a tailing follower meets it: its one
// record (sequence 2, replacing the document with abC) has a strtab delta
// based past the entries of record 1, which the page does not ship.
// carried is the table record 1 left behind, after the table once record
// 2 has been decoded. stream renders the page with the given prefix;
// frames renders it frame by frame in the order named — H(eader),
// I (the prefix carried), R(ecord), E(nd) — so that a test can misplace
// one.
type tailPage struct {
	carried, after []string
	raws           []catalog.RawWALRecord
}

func newTailPage(t testing.TB) *tailPage {
	t.Helper()
	var shared codec.SharedStrings
	if _, err := catalog.EncodeWALRecordShared(catalog.WALRecord{Seq: 1, Epoch: 1,
		Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abA)}}, &shared); err != nil {
		t.Fatal(err)
	}
	carried := slices.Clone(shared.Strings())
	payload, err := catalog.EncodeWALRecordShared(catalog.WALRecord{Seq: 2, Epoch: 1,
		Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abC)}}, &shared)
	if err != nil {
		t.Fatal(err)
	}
	return &tailPage{carried, slices.Clone(shared.Strings()), []catalog.RawWALRecord{{Seq: 2, Epoch: 1, Payload: payload}}}
}

func (p *tailPage) stream(t testing.TB, prefix []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	page := &replica.WALPage{Database: "x", Since: 1, LastSeq: 2, Digest: "d", Epoch: 1}
	if err := replica.EncodeRawWALPage(&buf, page, p.raws, prefix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (p *tailPage) frames(t testing.TB, order string) []byte {
	t.Helper()
	byKind := map[rune][]byte{}
	for rest, i := p.stream(t, p.carried), 0; len(rest) > 0; i++ {
		fr, next, err := codec.ParseFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		byKind[rune("HIRE"[i])] = rest[:len(rest)-len(next)]
		if rest = next; fr.Kind == codec.KindEnd {
			break
		}
	}
	var out []byte
	for _, k := range order {
		out = append(out, byKind[k]...)
	}
	return out
}

// FuzzDecodeWALPage: arbitrary bytes fed to the page and snapshot
// decoders, over an empty table or over the table a tailing follower
// carries in from the page before, must error or produce a valid page —
// never panic, never hang, and never take a string-table frame once a
// record (or another table) has gone by.
func FuzzDecodeWALPage(f *testing.F) {
	page := &replica.WALPage{Database: "x", Since: 0, LastSeq: 1, Digest: "d", Epoch: 1,
		Records: []catalog.WALRecord{{Seq: 1, Epoch: 1,
			Op: core.Op{Kind: core.OpReplace, TreeValue: mustDecode(f, abA)}}}}
	var raw bytes.Buffer
	if err := replica.EncodeWALPage(&raw, page); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	tree := mustDecode(f, abC)
	if err := replica.EncodeSnapshotShared(&snap, &replica.SnapshotPayload{Database: "x", Seq: 1, Digest: replica.DigestString(tree), Tree: tree}); err != nil {
		f.Fatal(err)
	}
	tail := newTailPage(f)
	f.Add(raw.Bytes(), false) // self-contained records, no I frame
	f.Add([]byte{0x00}, false)
	f.Add(tail.stream(f, nil), true)          // decodes over the carried table only
	f.Add(tail.stream(f, tail.carried), true) // stands alone
	f.Add(tail.stream(f, tail.carried), false)
	f.Add(tail.frames(f, "HRIE"), true) // malformed: the table behind the record
	f.Add(snap.Bytes(), false)
	f.Add(tail.stream(f, nil), false) // based past a table nobody holds
	f.Fuzz(func(t *testing.T, data []byte, seeded bool) {
		var tab codec.StrTab
		if seeded {
			tab.Apply(0, tail.carried)
		}
		replica.DecodeSnapshot(bytes.NewReader(data))
		if _, err := replica.DecodeWALPageFrom(bytes.NewReader(data), &tab); err != nil {
			return
		}
		// Accepted: the frames up to the trailer must have the shape
		// H I? R* E.
		records, tables := 0, 0
		for rest := data; ; {
			fr, next, err := codec.ParseFrame(rest)
			if err != nil {
				t.Fatalf("accepted a stream whose frames do not parse: %v", err)
			}
			switch rest = next; fr.Kind {
			case codec.KindRecord:
				records++
			case codec.KindStrTab:
				if tables++; records > 0 || tables > 1 {
					t.Fatalf("accepted string-table frame %d after %d record(s)", tables, records)
				}
			case codec.KindEnd:
				return
			}
		}
	})
}

// TestWALPageCarriedTable pins what the fuzzer's seeds stand for: a page
// without its prefix decodes over the table the page before left behind
// and over nothing else; a prefix frame replaces whatever was carried in;
// either way the table left behind is the primary's; and a prefix frame
// behind a record, or a second one, is refused.
func TestWALPageCarriedTable(t *testing.T) {
	tail := newTailPage(t)
	decode := func(stream []byte, have []string) (*replica.WALPage, codec.TabMark, error) {
		var tab codec.StrTab
		if err := tab.Apply(0, have); err != nil {
			t.Fatal(err)
		}
		p, err := replica.DecodeWALPageFrom(bytes.NewReader(stream), &tab)
		return p, tab.Mark(), err
	}
	want := mustDecode(t, abC)
	for name, c := range map[string]struct {
		prefix, have []string
	}{
		"carried, no prefix":        {nil, tail.carried},
		"prefix, nothing carried":   {tail.carried, nil},
		"prefix over a stale table": {tail.carried, []string{"left", "over", "from", "another", "stream", "entirely"}},
	} {
		got, left, err := decode(tail.stream(t, c.prefix), c.have)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Records) != 1 || !pxml.Equal(got.Records[0].Op.TreeValue.Root(), want.Root()) {
			t.Fatalf("%s: decoded %+v", name, got.Records)
		}
		if primary := (codec.TabMark{}).Extend(tail.after); left != primary {
			t.Fatalf("%s: table left behind is %v, the primary's is %v", name, left, primary)
		}
	}
	if _, _, err := decode(tail.stream(t, nil), tail.carried[:len(tail.carried)-1]); err == nil {
		t.Fatal("a record based past the carried table decoded")
	}
	if _, _, err := decode(tail.frames(t, "HRIE"), tail.carried); err == nil {
		t.Fatal("a string-table frame behind a record was accepted")
	}
	if _, _, err := decode(tail.frames(t, "HIIRE"), nil); err == nil {
		t.Fatal("a second string-table frame was accepted")
	}
	if _, _, err := decode(tail.frames(t, "HIRE"), nil); err != nil {
		t.Fatalf("the frames in their own order: %v", err)
	}
}

// TestWALPageEmpty: a caught-up page (no records) is a legal stream.
func TestWALPageEmpty(t *testing.T) {
	page := &replica.WALPage{Database: "x", Since: 9, LastSeq: 9, Digest: "0", Epoch: 1}
	var buf bytes.Buffer
	if err := replica.EncodeWALPage(&buf, page); err != nil {
		t.Fatal(err)
	}
	got, err := replica.DecodeWALPage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 || got.LastSeq != 9 {
		t.Fatalf("empty page round trip = %+v", got)
	}
}

// TestWALPageTruncationRejected: a connection cut at ANY byte of the
// stream must surface as an error, never as a short-but-accepted page —
// that is what the E trailer exists for.
func TestWALPageTruncationRejected(t *testing.T) {
	page := &replica.WALPage{
		Database: "x", Since: 0, LastSeq: 2, Digest: "d", Epoch: 1,
		Records: []catalog.WALRecord{
			{Seq: 1, Epoch: 1, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustDecode(t, abA)}}},
			{Seq: 2, Epoch: 1, Op: core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{mustDecode(t, abB)}}},
		},
	}
	var buf bytes.Buffer
	if err := replica.EncodeWALPage(&buf, page); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := replica.DecodeWALPage(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("stream cut at byte %d decoded as a full page", cut)
		}
	}
}

// TestWALPageTrailerMismatch: a trailer whose count disagrees with the
// records actually carried is rejected.
func TestWALPageTrailerMismatch(t *testing.T) {
	var buf bytes.Buffer
	fw := codec.NewFrameWriter(&buf)
	var hdr []byte
	hdr = codec.AppendString(hdr, "x")
	hdr = codec.AppendUvarint(hdr, 0)
	hdr = codec.AppendUvarint(hdr, 0)
	hdr = codec.AppendString(hdr, "d")
	hdr = codec.AppendUvarint(hdr, 1)
	if err := fw.Write(codec.KindPageHeader, 1, hdr); err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(codec.KindEnd, 1, codec.AppendUvarint(nil, 5)); err != nil {
		t.Fatal(err)
	}
	_, err := replica.DecodeWALPage(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("forged trailer count: err = %v", err)
	}
}

// TestSnapshotSharedRoundTrip sends a full bootstrap payload — document
// as dictionary I frame + shared-index arena, schema, histories — through
// the snapshot stream and back.
func TestSnapshotSharedRoundTrip(t *testing.T) {
	tree := mustDecode(t, abC)
	when := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	payload := &replica.SnapshotPayload{
		Database:      "x",
		FormatVersion: 5,
		Seq:           7,
		Epoch:         2,
		Digest:        replica.DigestString(tree),
		Tree:          tree,
		Schema:        "<!ELEMENT addressbook (person*)>",
		Integrations:  []integrate.Stats{{OracleCalls: 3, Components: 1}},
		Feedback: []feedback.Event{{Query: "//q", Value: "v", PriorP: 0.5,
			WorldsBefore: big.NewInt(4), WorldsAfter: big.NewInt(2), When: when}},
	}
	var buf bytes.Buffer
	if err := replica.EncodeSnapshotShared(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := replica.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Database != "x" || got.FormatVersion != 5 || got.Seq != 7 || got.Epoch != 2 ||
		got.Digest != payload.Digest || got.Schema != payload.Schema {
		t.Fatalf("snapshot header round trip = %+v", got)
	}
	if got.Tree == nil || !pxml.Equal(got.Tree.Root(), tree.Root()) {
		t.Fatal("snapshot document differs after round trip")
	}
	if replica.DigestString(got.Tree) != payload.Digest {
		t.Fatal("decoded document digest mismatch")
	}
	if len(got.Integrations) != 1 || got.Integrations[0].OracleCalls != 3 {
		t.Fatalf("integrations = %+v", got.Integrations)
	}
	if len(got.Feedback) != 1 || got.Feedback[0].WorldsBefore.Cmp(big.NewInt(4)) != 0 ||
		!got.Feedback[0].When.Equal(when) {
		t.Fatalf("feedback = %+v", got.Feedback)
	}

	payload.Tree = nil
	if err := replica.EncodeSnapshotShared(&bytes.Buffer{}, payload); err == nil {
		t.Fatal("EncodeSnapshotShared accepted a nil tree")
	}
}

// TestSnapshotPendingBlob: earlier primaries end the S header with the
// async ingest queue's pending sources, a JSON blob. A stream whose blob
// is empty or null (no queue entries) still decodes, so a follower can
// bootstrap from such a primary; a non-empty one is refused, naming the
// database and how many tickets it carried. The header is hand-built,
// since this build writes no such field.
func TestSnapshotPendingBlob(t *testing.T) {
	tree := mustDecode(t, abA)
	payload := &replica.SnapshotPayload{Database: "x", FormatVersion: 5, Seq: 1, Epoch: 1, Digest: replica.DigestString(tree), Tree: tree}
	var buf bytes.Buffer
	if err := replica.EncodeSnapshotShared(&buf, payload); err != nil {
		t.Fatal(err)
	}
	hdr, rest, err := codec.ParseFrame(buf.Bytes())
	if err != nil || hdr.Kind != codec.KindSnapshotHeader {
		t.Fatalf("first frame %q: %v", hdr.Kind, err)
	}
	withPending := func(blob []byte) []byte {
		p := codec.AppendBytes(append([]byte(nil), hdr.Payload...), blob)
		return append(codec.AppendFrame(nil, hdr.Kind, hdr.Version, p), rest...)
	}
	for _, blob := range []string{"", "null", "[]"} {
		got, err := replica.DecodeSnapshot(bytes.NewReader(withPending([]byte(blob))))
		if err != nil {
			t.Fatalf("pending blob %q: %v", blob, err)
		}
		if !pxml.Equal(got.Tree.Root(), tree.Root()) {
			t.Fatalf("pending blob %q: document differs", blob)
		}
	}
	queued := `[{"ticket":"t1","sources":["<addressbook/>"]},{"ticket":"t2","sources":["<addressbook/>"]}]`
	_, err = replica.DecodeSnapshot(bytes.NewReader(withPending([]byte(queued))))
	if err == nil || !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "2 pending ticket(s)") {
		t.Fatalf("non-empty pending blob: %v, want a refusal naming \"x\" and 2 tickets", err)
	}
}

// TestSnapshotTruncationRejected: every cut of the snapshot stream is an
// error — a half-received bootstrap must never install.
func TestSnapshotTruncationRejected(t *testing.T) {
	tree := mustDecode(t, abA)
	payload := &replica.SnapshotPayload{Database: "x", FormatVersion: 5, Seq: 1, Epoch: 1, Digest: replica.DigestString(tree), Tree: tree}
	var buf bytes.Buffer
	if err := replica.EncodeSnapshotShared(&buf, payload); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := replica.DecodeSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("stream cut at byte %d decoded as a full snapshot", cut)
		}
	}
}

// TestReplicationWireNegotiationBinary: a follower bootstraps and tails
// over the wal2 wire, converges, and the primary's /stats counts what it
// shipped: one snapshot, the pages, and their bytes — payload_bytes and
// wire_bytes alike, since nothing compresses them.
func TestReplicationWireNegotiationBinary(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Open(t.TempDir(), fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitCaughtUp(t, rep)
	fdb, err := rep.Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb.Core(), fdb.Core())

	// The tail keeps flowing in binary: more writes, including a
	// feedback op whose timestamp must survive the binary round trip.
	if _, err := pdb.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep)
	assertConverged(t, pdb.Core(), fdb.Core())

	if w := wireCounters(t, ts.URL); w.Snapshots != 1 || w.Pages == 0 || w.WireBytes == 0 || w.PayloadBytes != w.WireBytes {
		t.Fatalf("wire section after bootstrap and tail: %+v", w)
	}
}

// frontPrimary puts a proxy in front of a primary. Every /wal request
// passes through hook first, with its parsed query: hook may rewrite the
// query in place, or answer the request itself and report true.
func frontPrimary(t *testing.T, primary string, hook func(w http.ResponseWriter, q url.Values) bool) *httptest.Server {
	t.Helper()
	u, err := url.Parse(primary)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ErrorLog = log.New(io.Discard, "", 0) // long-polls cut at Close
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/wal") {
			q := r.URL.Query()
			if hook(w, q) {
				return
			}
			r.URL.RawQuery = q.Encode()
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// wireCounters reads the wire section of a primary's /stats.
func wireCounters(t *testing.T, url string) server.WireStats {
	t.Helper()
	resp, err := http.Get(url + "/dbs/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Wire == nil {
		t.Fatalf("stats: wire section %v, err %v", st.Wire, err)
	}
	return *st.Wire
}

// TestReplicationWireNegotiationMixedVersions: the tab= mark across
// follower and primary generations. One primary feeds, at once, a
// follower naming the table it holds, one whose primary is older than the
// tab= parameter (a proxy strips it: the prefix always comes), and one
// whose tab= names the right length with the wrong checksum — all
// converge on the same document and histories, and none needs a second
// snapshot to get there. A follower that sends no tab= at all still gets
// pages that stand alone. Then the primary is deposed: a follower that
// built its table from the old primary's stream re-points to the
// promoted node and converges there.
func TestReplicationWireNegotiationMixedVersions(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	stripped, flipped := 0, 0
	noTab := frontPrimary(t, ts.URL, func(_ http.ResponseWriter, q url.Values) bool {
		mu.Lock()
		defer mu.Unlock()
		if q.Has("tab") {
			stripped++
		}
		q.Del("tab")
		return false
	})
	wrongSum := frontPrimary(t, ts.URL, func(_ http.ResponseWriter, q url.Values) bool {
		mu.Lock()
		defer mu.Unlock()
		if m, err := codec.ParseTabMark(q.Get("tab")); err == nil && m.Len > 0 {
			m.Sum ^= 1
			q.Set("tab", m.String())
			flipped++
		}
		return false
	})
	variants := []struct{ name, primary string }{
		{"current", ts.URL},
		{"primary-ignores-tab", noTab.URL},
		{"wrong-checksum", wrongSum.URL},
	}
	var reps []*replica.Replica
	for _, v := range variants {
		rep, err := replica.Open(t.TempDir(), fastOptions(v.primary))
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		defer rep.Close()
		reps = append(reps, rep)
	}
	// More traffic after the bootstrap, so every follower also exercises
	// its WAL tail path — in three rounds, so that the later pages go to
	// followers that hold a table from the earlier ones.
	writes := []func() error{
		func() error { _, err := pdb.Core().IntegrateXMLString(abB); return err },
		func() error { _, err := pdb.Core().Feedback(`//person[nm="John"]/tel`, "2222", false); return err },
		func() error { _, err := pdb.Core().IntegrateXMLString(abC); return err },
	}
	for _, write := range writes {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		for i := range variants {
			waitCaughtUp(t, reps[i])
		}
	}
	for i, v := range variants {
		fdb, err := reps[i].Catalog().Get("x")
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		assertConverged(t, pdb.Core(), fdb.Core())
		if d := reps[i].Status().Databases[0]; d.SnapshotsInstalled != 1 || d.Divergences != 0 {
			t.Fatalf("%s follower: %d snapshot(s), %d divergence(s); want the bootstrap alone", v.name, d.SnapshotsInstalled, d.Divergences)
		}
	}
	mu.Lock()
	if stripped == 0 || flipped == 0 {
		t.Fatalf("proxies saw %d and %d tab= parameters: the followers are not naming their tables", stripped, flipped)
	}
	mu.Unlock()
	// Only the current follower can have been spared a prefix — and after
	// the first round it was.
	if w := wireCounters(t, ts.URL); w.PrefixSkipped == 0 {
		t.Fatalf("no page went out without its prefix: %+v", w)
	}

	// A follower that sends no tab= (one built before this parameter)
	// gets, mid-segment, a page that decodes over an empty table.
	resp, err := http.Get(ts.URL + "/dbs/x/wal?since=3")
	if err != nil {
		t.Fatal(err)
	}
	page, err := replica.DecodeWALPage(resp.Body)
	resp.Body.Close()
	if err != nil || len(page.Records) != 1 || page.Records[0].Seq != 4 {
		t.Fatalf("page for a follower without a table: %+v, err %v", page, err)
	}

	// Failover. reps[0] ("current") holds the table of the old primary's
	// stream; reps[1] is promoted and fences the old primary (through the
	// proxy it follows), which then names its successor. The promoted node journaled the same ops into
	// its own segments — it bootstrapped at 1, so its table lacks what the
	// old primary's record 1 interned — and the follower's mark cannot be
	// taken for one of its own.
	promoted := server.NewReplica(reps[1], server.Options{})
	defer promoted.Close()
	pts := httptest.NewServer(promoted.Handler())
	defer pts.Close()
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(pts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if msg, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s: %s", path, resp.Status, msg)
		}
	}
	post("/promote", `{"advertise_url":"`+pts.URL+`"}`)
	post("/dbs/x/integrate", `<addressbook><person><nm>Rita</nm><tel>4444</tel></person></addressbook>`)
	post("/dbs/x/feedback", `{"query":"//person[nm=\"Mary\"]/tel","value":"3333","correct":false}`)
	deadline := time.Now().Add(30 * time.Second)
	for reps[0].Primary() != pts.URL {
		if time.Now().After(deadline) {
			t.Fatalf("follower still follows %s, the promoted node is %s", reps[0].Primary(), pts.URL)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitCaughtUp(t, reps[0])
	ndb, err := reps[1].Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	fdb, err := reps[0].Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, ndb.Core(), fdb.Core())
	if p, f := replica.DigestString(ndb.Core().Tree()), replica.DigestString(fdb.Core().Tree()); p != f || fdb.LastSeq() != 6 {
		t.Fatalf("after failover: digests %s and %s, follower at %d (want 6)", p, f, fdb.LastSeq())
	}
	if d := reps[0].Status().Databases[0]; d.SnapshotsInstalled != 1 || d.Divergences != 0 {
		t.Fatalf("after failover: %d snapshot(s), %d divergence(s); want neither to have moved", d.SnapshotsInstalled, d.Divergences)
	}
}

// TestReplicationRejectsNonWAL2Reply: a primary that answers /wal or
// /snapshot in anything but the wal2 stream — here a JSON body, what a
// build before the binary wire would send — fails the follower's round
// with an error naming the type it got. The error shows as last_error,
// and nothing local moves: no record applied, no snapshot installed, even
// when a 410 sends the follower to /snapshot for a resync.
func TestReplicationRejectsNonWAL2Reply(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := replica.Open(dir, fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep)
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}

	var gone atomic.Bool // /wal answers 410, so the follower resyncs
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/replication":
			json.NewEncoder(w).Encode(replica.PrimaryStatus{Role: "primary",
				Databases: []replica.PrimaryDBStatus{{Name: "x", LastSeq: pdb.LastSeq()}}})
		case strings.HasSuffix(r.URL.Path, "/wal"):
			if gone.Load() {
				http.Error(w, "gone", http.StatusGone)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"database": "x", "since": 1, "last_seq": 2, "records": []any{}})
		case strings.HasSuffix(r.URL.Path, "/snapshot"):
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"database": "x", "seq": 2, "tree": abB})
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()
	rep, err = replica.Open(dir, fastOptions(stub.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	fdb, err := rep.Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	before := replica.DigestString(fdb.Core().Tree())
	waitError := func(path string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := rep.Status()
			if len(st.Databases) == 1 {
				if e := st.Databases[0].LastError; strings.Contains(e, path) && strings.Contains(e, `"application/json"`) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no last_error naming the JSON reply to %s: %+v", path, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitError("/wal")
	gone.Store(true)
	waitError("/snapshot")
	d := rep.Status().Databases[0]
	if d.SnapshotsInstalled != 0 || d.OpsApplied != 0 || d.Divergences != 0 {
		t.Fatalf("a rejected reply moved local state: %+v", d)
	}
	if fdb.LastSeq() != 1 || replica.DigestString(fdb.Core().Tree()) != before {
		t.Fatalf("local database at seq %d, digest changed: %v", fdb.LastSeq(), replica.DigestString(fdb.Core().Tree()) != before)
	}
}
