package core_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

// TestConcurrentReadsDuringMutation hammers the read surface (Query,
// Stats, WorldCount, ExportXML, IsCertain) from many goroutines while
// integrations, feedback and normalization run. Under -race this proves
// the copy-on-write locking discipline: readers work on immutable tree
// snapshots and never observe a half-swapped state.
func TestConcurrentReadsDuringMutation(t *testing.T) {
	db := openBookA(t)
	const readers = 8
	const readsPerReader = 50

	var wg sync.WaitGroup

	// Writer: integrations, feedback and normalization, serialized among
	// themselves by the database's writer lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			src := bookB
			if i%2 == 1 {
				src = fmt.Sprintf(`<addressbook><person><nm>P%d</nm><tel>%d</tel></person></addressbook>`, i, 5000+i)
			}
			if _, err := db.IntegrateXML(strings.NewReader(src)); err != nil {
				t.Errorf("integrate %d: %v", i, err)
				return
			}
			// Feedback may legitimately fail once the judged value is
			// already conditioned away; only data races are the target.
			_, _ = db.Feedback(`//person/tel`, "2222", false)
			if i%3 == 2 {
				if _, _, err := db.Normalize(); err != nil {
					t.Errorf("normalize %d: %v", i, err)
					return
				}
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				switch i % 5 {
				case 0:
					if _, err := db.Query(`//person/nm`); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				case 1:
					if s := db.Stats(); s.LogicalNodes == 0 {
						t.Errorf("empty stats during mutation")
						return
					}
				case 2:
					if db.WorldCount().Sign() <= 0 {
						t.Errorf("non-positive world count")
						return
					}
				case 3:
					if err := db.ExportXML(io.Discard, xmlcodec.EncodeOptions{}); err != nil {
						t.Errorf("export: %v", err)
						return
					}
				case 4:
					db.IsCertain()
					db.IntegrationHistory()
					db.FeedbackHistory()
					db.QueryCacheStats()
				}
			}
		}(g)
	}
	wg.Wait()

	// The database still behaves after the storm.
	if _, err := db.Query(`//person/nm`); err != nil {
		t.Fatalf("query after concurrency storm: %v", err)
	}
	if err := db.Tree().Validate(); err != nil {
		t.Fatalf("tree invalid after concurrency storm: %v", err)
	}
}

// TestConcurrentIntegrations checks that racing writers serialize: every
// integration lands, none is lost to a stale-snapshot swap.
func TestConcurrentIntegrations(t *testing.T) {
	db := openBookA(t)
	const writers = 4
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := fmt.Sprintf(`<addressbook><person><nm>Writer%d</nm><tel>%d</tel></person></addressbook>`, g, 9000+g)
			if _, err := db.IntegrateXMLString(src); err != nil {
				t.Errorf("writer %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := len(db.IntegrationHistory()); got != writers {
		t.Fatalf("integration history = %d, want %d", got, writers)
	}
	// Every writer's person must be present in the final document.
	for g := 0; g < writers; g++ {
		res, err := db.Query(fmt.Sprintf(`//person[nm="Writer%d"]/tel`, g))
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("writer %d's integration was lost", g)
		}
	}
}

// TestSustainedIngestKeepsReadsConsistent streams sources through the
// synchronous integrate path while readers query: every tree a reader
// observes must be a committed prefix of the integration sequence (the
// copy-on-write swap never exposes an intermediate state), and the final
// tree must match the same fold done without readers.
func TestSustainedIngestKeepsReadsConsistent(t *testing.T) {
	const n = 24
	sources := make([]string, n)
	for i := range sources {
		sources[i] = fmt.Sprintf(
			"<addressbook><person><nm>Q%d</nm><tel>%04d</tel></person></addressbook>", i, i)
	}

	fold, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := map[uint64]bool{fold.Tree().Digest(): true}
	for _, src := range sources {
		if _, err := fold.IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
		prefixes[fold.Tree().Digest()] = true
	}

	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	stopReads := make(chan struct{})
	readsDone := make(chan error, 1)
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			if _, err := db.Query(`//person[nm]`); err != nil {
				readsDone <- fmt.Errorf("concurrent query: %w", err)
				return
			}
			if d := db.Tree().Digest(); !prefixes[d] {
				readsDone <- fmt.Errorf("reader observed tree %016x, no committed prefix", d)
				return
			}
		}
	}()
	for _, src := range sources {
		if _, err := db.IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
	}
	close(stopReads)
	if err := <-readsDone; err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(fold.Tree().Root(), db.Tree().Root()) {
		t.Fatal("sustained ingest diverged from the fold done without readers")
	}
}

// TestSnapshotRoundTripThroughDatabase exercises the SaveSnapshot /
// LoadSnapshot methods backing the server's persistence endpoints.
func TestSnapshotRoundTripThroughDatabase(t *testing.T) {
	db := openBookA(t)
	if _, err := db.IntegrateXML(strings.NewReader(bookB)); err != nil {
		t.Fatalf("integrate: %v", err)
	}
	dir := t.TempDir()
	m, err := db.SaveSnapshot(dir, "test")
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if m.Worlds != "3" || !m.HasSchema {
		t.Fatalf("manifest = %+v", m)
	}
	if _, err := db.Feedback(`//person/tel`, "2222", false); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	if !db.IsCertain() {
		t.Fatalf("feedback should have resolved all uncertainty")
	}
	snap, err := db.LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if snap.Schema == nil {
		t.Fatalf("snapshot lost the schema")
	}
	if db.WorldCount().Int64() != 3 {
		t.Fatalf("restore failed: %s worlds", db.WorldCount())
	}
	if db.Schema() == nil {
		t.Fatalf("database lost the schema after load")
	}
}

// TestReplaceTree exercises the replace-mode swap behind the server's
// /integrate?mode=replace.
func TestReplaceTree(t *testing.T) {
	db := openBookA(t)
	if _, err := db.IntegrateXML(strings.NewReader(bookB)); err != nil {
		t.Fatalf("integrate: %v", err)
	}
	nt, err := xmlcodec.DecodeString(`<addressbook><person><nm>Solo</nm></person></addressbook>`)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := db.ReplaceTree(nt); err != nil {
		t.Fatalf("ReplaceTree: %v", err)
	}
	if !db.IsCertain() || len(db.IntegrationHistory()) != 0 {
		t.Fatalf("replace did not reset state")
	}
	if err := db.ReplaceTree(nil); err == nil {
		t.Fatalf("nil replace should error")
	}
}
