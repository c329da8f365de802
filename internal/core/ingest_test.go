package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pxml"
)

// waitTicket polls until the ticket reaches a terminal state.
func waitTicket(t *testing.T, db *core.Database, ticket string) core.TicketStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := db.TicketStatus(ticket)
		if err != nil {
			t.Fatalf("ticket %s: %v", ticket, err)
		}
		if st.State != core.TicketPending {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket %s still pending after 10s", ticket)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEnqueueDisabledWithoutQueue(t *testing.T) {
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Enqueue([]*pxml.Tree{decodeTree(t, bookB)})
	if !errors.Is(err, core.ErrQueueDisabled) {
		t.Fatalf("want ErrQueueDisabled, got %v", err)
	}
}

// TestEnqueueBackpressureAtExactDepth: with no drainer running, the
// queue accepts exactly IngestDepth sources and refuses the next with
// ErrQueueFull.
func TestEnqueueBackpressureAtExactDepth(t *testing.T) {
	const depth = 3
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD, IngestDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if _, err := db.Enqueue([]*pxml.Tree{decodeTree(t, bookB)}); err != nil {
			t.Fatalf("enqueue %d/%d: %v", i+1, depth, err)
		}
	}
	_, err = db.Enqueue([]*pxml.Tree{decodeTree(t, bookB)})
	if !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull at depth %d, got %v", depth, err)
	}
	iq := db.IngestStats()
	if iq.Depth != depth || iq.Accepted != depth {
		t.Fatalf("queue stats after backpressure: %+v", iq)
	}
}

// TestAsyncIngestMatchesSync: the queued path must land on the exact
// tree the synchronous path produces — same sources, same order.
func TestAsyncIngestMatchesSync(t *testing.T) {
	sources := []string{
		bookB,
		`<addressbook><person><nm>Carol</nm><tel>5555</tel></person></addressbook>`,
		`<addressbook><person><nm>Dave</nm></person></addressbook>`,
	}

	sync, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		if _, err := sync.IntegrateXMLString(src); err != nil {
			t.Fatalf("sync integrate: %v", err)
		}
	}

	async, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD, IngestDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	async.StartIngest()
	defer async.StopIngest()
	var tickets []string
	for _, src := range sources {
		ticket, err := async.Enqueue([]*pxml.Tree{decodeTree(t, src)})
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		tickets = append(tickets, ticket)
	}
	for _, ticket := range tickets {
		st := waitTicket(t, async, ticket)
		if st.State != core.TicketApplied {
			t.Fatalf("ticket %s: state %q error %q", ticket, st.State, st.Error)
		}
	}
	if !pxml.Equal(sync.Tree().Root(), async.Tree().Root()) {
		t.Fatal("async ingest result differs from sync integration")
	}
	if sync.WorldCount().Cmp(async.WorldCount()) != 0 {
		t.Fatalf("world counts differ: sync %s, async %s", sync.WorldCount(), async.WorldCount())
	}
	iq := async.IngestStats()
	if iq.Applied != int64(len(sources)) || iq.Failed != 0 || iq.Depth != 0 {
		t.Fatalf("queue stats after drain: %+v", iq)
	}
	if async.IntegrationCount() != len(sources) {
		t.Fatalf("integration history: got %d entries, want %d", async.IntegrationCount(), len(sources))
	}
}

// TestAsyncIngestFailureIsolated: a bad source fails its own ticket
// without poisoning the batch around it.
func TestAsyncIngestFailureIsolated(t *testing.T) {
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD, IngestDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	good1, err := db.Enqueue([]*pxml.Tree{decodeTree(t, bookB)})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := db.Enqueue([]*pxml.Tree{decodeTree(t, `<library><book/></library>`)})
	if err != nil {
		t.Fatal(err)
	}
	good2, err := db.Enqueue([]*pxml.Tree{decodeTree(t, `<addressbook><person><nm>Eve</nm></person></addressbook>`)})
	if err != nil {
		t.Fatal(err)
	}
	db.StartIngest()
	defer db.StopIngest()

	if st := waitTicket(t, db, good1); st.State != core.TicketApplied {
		t.Fatalf("good1: %+v", st)
	}
	if st := waitTicket(t, db, bad); st.State != core.TicketFailed || st.Error == "" {
		t.Fatalf("bad ticket should fail with an error: %+v", st)
	}
	if st := waitTicket(t, db, good2); st.State != core.TicketApplied {
		t.Fatalf("good2 after failed ticket: %+v", st)
	}
	iq := db.IngestStats()
	if iq.Applied != 2 || iq.Failed != 1 {
		t.Fatalf("queue stats: %+v", iq)
	}
}

func TestTicketStatusUnknown(t *testing.T) {
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD, IngestDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TicketStatus("t999"); !errors.Is(err, core.ErrUnknownTicket) {
		t.Fatalf("want ErrUnknownTicket, got %v", err)
	}
}

// TestSustainedIngestKeepsReadsConsistent is the -race smoke: enqueues
// stream in while readers query; every observed tree must be a committed
// prefix of the integration sequence, and the final tree must match the
// synchronous fold of all sources.
func TestSustainedIngestKeepsReadsConsistent(t *testing.T) {
	const n = 24
	sources := make([]string, n)
	for i := range sources {
		sources[i] = fmt.Sprintf(
			"<addressbook><person><nm>Q%d</nm><tel>%04d</tel></person></addressbook>", i, i)
	}

	sync, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		if _, err := sync.IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
	}

	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD, IngestDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.StartIngest()
	defer db.StopIngest()

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
			_ = db.Tree().WorldCount()
		}
	}()

	var last string
	for _, src := range sources {
		for {
			ticket, err := db.Enqueue([]*pxml.Tree{decodeTree(t, src)})
			if err == nil {
				last = ticket
				break
			}
			if !errors.Is(err, core.ErrQueueFull) {
				t.Fatalf("enqueue: %v", err)
			}
			time.Sleep(time.Millisecond) // backpressure: let the drainer catch up
		}
	}
	if st := waitTicket(t, db, last); st.State != core.TicketApplied {
		t.Fatalf("final ticket: %+v", st)
	}
	close(stopReads)
	if err := <-readsDone; err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(sync.Tree().Root(), db.Tree().Root()) {
		t.Fatal("sustained async ingest diverged from the synchronous fold")
	}
}
