package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

const (
	jSrcA = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
	jSrcB = `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`
)

// memJournal records ops in memory and can be told to fail.
type memJournal struct {
	ops  []core.Op
	seq  uint64
	fail error
}

func (j *memJournal) Record(op core.Op) (uint64, error) {
	if j.fail != nil {
		return 0, j.fail
	}
	j.seq++
	j.ops = append(j.ops, op)
	return j.seq, nil
}

func openJournaled(t *testing.T) (*core.Database, *memJournal) {
	t.Helper()
	db, err := core.OpenXML(strings.NewReader(jSrcA), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := &memJournal{}
	db.SetJournal(j, 0)
	return db, j
}

// TestDeepDocumentSurvivesMarkerXML: a plain document as deep as the XML
// decoder accepts still decodes from the marker XML that wraps each of its
// elements in <_prob><_poss> — the form a snapshot's pending-ingest entry
// keeps it in — so accepting it cannot break a snapshot load.
func TestDeepDocumentSurvivesMarkerXML(t *testing.T) {
	levels := xmlcodec.MaxDepth
	tr, err := xmlcodec.DecodeString(strings.Repeat("<a>", levels) + strings.Repeat("</a>", levels))
	if err != nil {
		t.Fatal(err)
	}
	docs, err := core.EncodePending([]core.PendingSource{{Ticket: "t1", Trees: []*pxml.Tree{tr}}})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := core.DecodePending(docs)
	if err != nil {
		t.Fatalf("decoding the pending-ingest form: %v", err)
	}
	if !pxml.Equal(pending[0].Trees[0].Root(), tr.Root()) {
		t.Fatal("the pending-ingest round trip changed the document")
	}
}

// TestJournalReplayReproducesState replays a journal into a fresh
// database and compares everything observable.
func TestJournalReplayReproducesState(t *testing.T) {
	db, j := openJournaled(t)
	if _, err := db.IntegrateXMLString(jSrcB); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatal(err)
	}
	if got := db.View().Seq; got != 3 {
		t.Fatalf("View().Seq = %d, want 3", got)
	}

	replica, err := core.OpenXML(strings.NewReader(jSrcA), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range j.ops {
		if err := replica.ApplyOp(op); err != nil {
			t.Fatalf("ApplyOp %d (%s): %v", i, op.Kind, err)
		}
	}
	if !pxml.Equal(replica.Tree().Root(), db.Tree().Root()) {
		t.Fatalf("replayed tree differs:\n%s\nvs\n%s", replica.Tree(), db.Tree())
	}
	a, b := db.FeedbackHistory(), replica.FeedbackHistory()
	if len(a) != 1 || len(b) != 1 || !a[0].When.Equal(b[0].When) || a[0].PriorP != b[0].PriorP {
		t.Fatalf("replayed feedback history differs: %+v vs %+v", a, b)
	}
	ia, ib := db.IntegrationHistory(), replica.IntegrationHistory()
	if len(ia) != len(ib) || ia[0] != ib[0] {
		t.Fatalf("replayed integration history differs: %+v vs %+v", ia, ib)
	}
}

// TestJournalFailureAbortsMutation pins the write-ahead contract: if the
// journal cannot make an op durable, the op must not happen.
func TestJournalFailureAbortsMutation(t *testing.T) {
	db, j := openJournaled(t)
	before := db.Tree()
	j.fail = errors.New("disk full")

	if _, err := db.IntegrateXMLString(jSrcB); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("integrate with failing journal: %v", err)
	}
	if db.Tree() != before {
		t.Fatalf("integrate swapped the tree despite journal failure")
	}
	if len(db.IntegrationHistory()) != 0 {
		t.Fatalf("integration history grew despite journal failure")
	}
	if err := db.ReplaceTree(before); err == nil {
		t.Fatalf("replace with failing journal should fail")
	}

	// Heal the journal: the database must be fully usable, and the
	// aborted feedback below must leave no half-applied session state.
	j.fail = nil
	if _, err := db.IntegrateXMLString(jSrcB); err != nil {
		t.Fatalf("integrate after heal: %v", err)
	}
	j.fail = errors.New("disk full again")
	worlds := db.WorldCount()
	if _, err := db.Feedback(`//person[nm="John"]/tel`, "2222", false); err == nil {
		t.Fatalf("feedback with failing journal should fail")
	}
	if db.WorldCount().Cmp(worlds) != 0 {
		t.Fatalf("feedback conditioned the tree despite journal failure")
	}
	j.fail = nil
	if _, err := db.Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatalf("feedback after heal: %v", err)
	}
	if db.FeedbackCount() != 1 {
		t.Fatalf("feedback count = %d", db.FeedbackCount())
	}
}
