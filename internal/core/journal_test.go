package core_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
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
// elements in <_prob><_poss> — the form /export writes it in — so an
// accepted document always survives an export and re-import.
func TestDeepDocumentSurvivesMarkerXML(t *testing.T) {
	levels := xmlcodec.MaxDepth
	tr, err := xmlcodec.DecodeString(strings.Repeat("<a>", levels) + strings.Repeat("</a>", levels))
	if err != nil {
		t.Fatal(err)
	}
	marker, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{KeepTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := xmlcodec.DecodeString(marker)
	if err != nil {
		t.Fatalf("decoding the marker XML: %v", err)
	}
	if !pxml.Equal(back.Root(), tr.Root()) {
		t.Fatal("the marker XML round trip changed the document")
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
	if ia, ib := db.IntegrationCount(), replica.IntegrationCount(); ia != 1 || ib != ia {
		t.Fatalf("replayed integration count %d, live %d", ib, ia)
	}
}

// TestConcurrentWritersJournalInApplyOrder pins the invariant the single
// writer lock guards: racing integrate, reject-feedback and normalize
// writers commit to the journal in exactly the order they apply in memory,
// so replaying the journal in sequence order into a fresh database
// reproduces the live one — tree, integration count and feedback
// history alike.
func TestConcurrentWritersJournalInApplyOrder(t *testing.T) {
	db, j := openJournaled(t)
	const rounds = 6
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				src := fmt.Sprintf(`<addressbook><person><nm>John</nm><tel>%d%d</tel></person></addressbook>`, w, i)
				if _, err := db.IntegrateXMLString(src); err != nil {
					t.Errorf("integrate %d/%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// A rejection fails once its value is conditioned away or
			// would empty the document; only the committed ones matter.
			_, _ = db.Feedback(`//person/tel`, fmt.Sprintf("0%d", i), false)
			_, _ = db.Feedback(`//person/tel`, "1111", false)
		}
	}()
	go func() {
		defer wg.Done()
		// Normalize is cheap next to integrate: many of them widen the
		// windows in which a commit out of order would show.
		for i := 0; i < 10*rounds; i++ {
			if _, _, err := db.Normalize(); err != nil {
				t.Errorf("normalize %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := db.View().Seq; got != uint64(len(j.ops)) {
		t.Fatalf("applied seq %d after %d journaled ops", got, len(j.ops))
	}

	replayed, err := core.OpenXML(strings.NewReader(jSrcA), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range j.ops {
		if err := replayed.ApplyOp(op); err != nil {
			t.Fatalf("replaying op %d (%s): %v", i+1, op.Kind, err)
		}
	}
	if !pxml.Equal(replayed.Tree().Root(), db.Tree().Root()) {
		t.Fatal("journal replayed in seq order does not reproduce the live tree")
	}
	if a, b := db.IntegrationCount(), replayed.IntegrationCount(); a != b {
		t.Fatalf("integration count: live %d, replayed %d", a, b)
	}
	live, rep := db.FeedbackHistory(), replayed.FeedbackHistory()
	if len(live) != len(rep) {
		t.Fatalf("feedback history: %d live events, %d replayed", len(live), len(rep))
	}
	for i := range live {
		a, b := live[i], rep[i]
		if a.Query != b.Query || a.Value != b.Value || a.Judgment != b.Judgment ||
			!a.When.Equal(b.When) || a.PriorP != b.PriorP ||
			a.WorldsBefore.Cmp(b.WorldsBefore) != 0 || a.WorldsAfter.Cmp(b.WorldsAfter) != 0 {
			t.Fatalf("feedback event %d: live %+v, replayed %+v", i, a, b)
		}
	}
}

// TestJournalFailureAbortsMutation pins the write-ahead contract for every
// kind of mutation: if the journal cannot make an op durable, the op must
// not happen — the tree, the schema, both histories, the applied sequence
// and the summary-warm count all stay as they were — and once the journal
// heals the same op commits.
func TestJournalFailureAbortsMutation(t *testing.T) {
	snapDir := t.TempDir()
	// The snapshot carries a schema of its own, so a load would show in
	// Schema().
	snapSrc, err := core.OpenXML(strings.NewReader(jSrcB), core.Config{Schema: dtd.MustParse(personDTD.String())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapSrc.SaveSnapshot(snapDir, "journal failure"); err != nil {
		t.Fatal(err)
	}
	// Two people whose phone numbers the integration leaves uncertain, so
	// the set-up can reject one of Mary's and the feedback case one of
	// John's.
	const (
		srcA = `<addressbook><person><nm>John</nm><tel>1111</tel></person><person><nm>Mary</nm><tel>5555</tel></person></addressbook>`
		srcB = `<addressbook><person><nm>John</nm><tel>2222</tel></person><person><nm>Mary</nm><tel>6666</tel></person></addressbook>`
	)

	for _, tc := range []struct {
		kind string
		run  func(db *core.Database) error
	}{
		{"integrate", func(db *core.Database) error {
			_, err := db.IntegrateXMLString(srcA)
			return err
		}},
		{"batch", func(db *core.Database) error {
			_, _, err := db.IntegrateBatchXML([]io.Reader{strings.NewReader(srcA), strings.NewReader(srcB)})
			return err
		}},
		{"feedback", func(db *core.Database) error {
			_, err := db.Feedback(`//person[nm="John"]/tel`, "2222", false)
			return err
		}},
		{"normalize", func(db *core.Database) error {
			_, _, err := db.Normalize()
			return err
		}},
		{"replace", func(db *core.Database) error {
			return db.ReplaceTree(pxml.CertainTree(pxml.NewElem("addressbook", "")))
		}},
		{"load", func(db *core.Database) error {
			_, err := db.LoadSnapshot(snapDir)
			return err
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			// Both histories non-empty, so a reset would show.
			db, err := core.OpenXML(strings.NewReader(srcA), core.Config{Schema: personDTD})
			if err != nil {
				t.Fatal(err)
			}
			j := &memJournal{}
			db.SetJournal(j, 0)
			if _, err := db.IntegrateXMLString(srcB); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Feedback(`//person[nm="Mary"]/tel`, "5555", false); err != nil {
				t.Fatal(err)
			}
			state := func() string {
				return fmt.Sprintf("tree %p schema %p integrations %v feedback %v seq %d builds %d",
					db.Tree(), db.Schema(), db.IntegrationCount(), db.FeedbackHistory(), db.AppliedSeq(), db.IndexStats().Builds)
			}
			before := state()

			j.fail = errors.New("disk full")
			if err := tc.run(db); err == nil || !strings.Contains(err.Error(), "disk full") {
				t.Fatalf("%s with a failing journal: %v", tc.kind, err)
			}
			if after := state(); after != before {
				t.Fatalf("%s changed the database despite the journal failure:\n before %s\n after  %s", tc.kind, before, after)
			}

			j.fail = nil
			seq := db.AppliedSeq()
			if err := tc.run(db); err != nil {
				t.Fatalf("%s after the journal healed: %v", tc.kind, err)
			}
			if got := db.AppliedSeq(); got != seq+1 {
				t.Fatalf("%s after the journal healed: applied seq %d, want %d", tc.kind, got, seq+1)
			}
		})
	}
}
