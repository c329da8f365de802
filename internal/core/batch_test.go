package core_test

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

const bookC = `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`

func decodeTree(t *testing.T, src string) *pxml.Tree {
	t.Helper()
	tr, err := xmlcodec.DecodeString(src)
	if err != nil {
		t.Fatalf("DecodeString: %v", err)
	}
	return tr
}

// TestIntegrateBatchMatchesSequentialFold checks that one batch produces
// exactly the document (and history) that folding the sources in one at a
// time would.
func TestIntegrateBatchMatchesSequentialFold(t *testing.T) {
	batched := openBookA(t)
	statsList, result, err := batched.IntegrateBatch([]*pxml.Tree{decodeTree(t, bookB), decodeTree(t, bookC)})
	if err != nil {
		t.Fatalf("IntegrateBatch: %v", err)
	}
	if len(statsList) != 2 {
		t.Fatalf("stats for %d sources, want 2", len(statsList))
	}
	if !pxml.Equal(result.Root(), batched.Tree().Root()) {
		t.Fatalf("returned tree is not the installed tree")
	}
	if got := batched.IntegrationCount(); got != 2 {
		t.Fatalf("history length = %d, want 2", got)
	}

	sequential := openBookA(t)
	if _, err := sequential.IntegrateXML(strings.NewReader(bookB)); err != nil {
		t.Fatalf("IntegrateXML B: %v", err)
	}
	if _, err := sequential.IntegrateXML(strings.NewReader(bookC)); err != nil {
		t.Fatalf("IntegrateXML C: %v", err)
	}
	if !pxml.Equal(batched.Tree().Root(), sequential.Tree().Root()) {
		t.Fatalf("batch result differs from sequential fold:\nbatch:\n%s\nsequential:\n%s",
			batched.Tree(), sequential.Tree())
	}
}

// TestIntegrateBatchIsAtomic checks all-or-nothing semantics: a failing
// source (here one with a mismatched root tag) leaves the database content
// and history untouched, even when earlier sources integrated fine.
func TestIntegrateBatchIsAtomic(t *testing.T) {
	db := openBookA(t)
	before := db.Tree()
	_, _, err := db.IntegrateBatch([]*pxml.Tree{
		decodeTree(t, bookB),
		decodeTree(t, `<catalog><movie><title>Jaws</title></movie></catalog>`),
	})
	if err == nil {
		t.Fatalf("batch with a mismatched root should fail")
	}
	if !strings.Contains(err.Error(), "source 2 of 2") {
		t.Fatalf("error should name the failing source: %v", err)
	}
	if db.Tree() != before {
		t.Fatalf("failed batch must not touch the document")
	}
	if got := db.IntegrationCount(); got != 0 {
		t.Fatalf("failed batch recorded %d history entries", got)
	}
}

// TestIntegrateBatchXMLRejectsMalformedBeforeIntegrating checks that a
// malformed source fails the whole batch during decoding, before any
// integration work.
func TestIntegrateBatchXMLRejectsMalformedBeforeIntegrating(t *testing.T) {
	db := openBookA(t)
	before := db.Tree()
	_, _, err := db.IntegrateBatchXML([]io.Reader{
		strings.NewReader(bookB),
		strings.NewReader(`<addressbook><person>`),
	})
	if err == nil {
		t.Fatalf("malformed source should fail the batch")
	}
	if db.Tree() != before || db.IntegrationCount() != 0 {
		t.Fatalf("failed batch must not touch the database")
	}
	if _, _, err := db.IntegrateBatch(nil); err == nil {
		t.Fatalf("empty batch should be an error")
	}
}

// TestIntegrateBatchServesReadersThroughout hammers reads while a batch
// is in flight: queries must always see a consistent snapshot (never an
// intermediate fold state is *observable* as corruption — world counts
// are either pre-batch or post-batch values).
func TestIntegrateBatchServesReadersThroughout(t *testing.T) {
	db := openBookA(t)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(`//person/tel`); err != nil {
					t.Errorf("Query during batch: %v", err)
					return
				}
				if err := db.Tree().Validate(); err != nil {
					t.Errorf("invalid snapshot observed: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, _, err := db.IntegrateBatch([]*pxml.Tree{decodeTree(t, bookB), decodeTree(t, bookC)}); err != nil {
			t.Fatalf("IntegrateBatch round %d: %v", i, err)
		}
	}
	close(stop)
	readers.Wait()
}
