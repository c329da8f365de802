package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/replica"
	"repro/internal/xmlcodec"
)

// newPrimaryServer boots a catalog-mode handler over a fresh data dir
// with one database "x" already holding an integration.
func newPrimaryServer(t *testing.T, opts catalog.Options) (*catalog.Catalog, *httptest.Server) {
	t.Helper()
	if opts.RootTag == "" {
		opts.RootTag = "addressbook"
	}
	cat, err := catalog.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewCatalog(cat, Options{}).Handler())
	t.Cleanup(func() { ts.Close(); cat.Close() })
	if _, err := cat.Create("x"); err != nil {
		t.Fatal(err)
	}
	return cat, ts
}

func getJSON(t *testing.T, url string, want int, v any) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d; body %s", url, resp.StatusCode, want, data)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: bad JSON %s: %v", url, data, err)
		}
	}
	return data
}

// getWire GETs a replication endpoint (/wal or /snapshot) without an
// Accept header and checks the status. A 200 must be the wal2 stream
// all the same; decode (replica.DecodeWALPage or replica.DecodeSnapshot)
// reads it. Any other status returns the zero value.
func getWire[T any](t *testing.T, url string, want int, decode func(io.Reader) (T, error)) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var zero T
	if resp.StatusCode != want {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d; body %s", url, resp.StatusCode, want, data)
	}
	if want != http.StatusOK {
		return zero
	}
	if ct := resp.Header.Get("Content-Type"); ct != replica.ContentType {
		t.Fatalf("GET %s: Content-Type %q, want %q", url, ct, replica.ContentType)
	}
	v, err := decode(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return v
}

// TestWALEndpoint covers the log-shipping read API: paging, the
// consistent (seq, digest) header, long-poll wakeup, and 410 for
// unservable positions.
func TestWALEndpoint(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookB); err != nil {
		t.Fatal(err)
	}

	page := getWire(t, ts.URL+"/dbs/x/wal?since=0", http.StatusOK, replica.DecodeWALPage)
	if page.Database != "x" || page.LastSeq != 2 || len(page.Records) != 2 {
		t.Fatalf("wal page %+v", page)
	}
	if page.Digest != replica.DigestString(db.Core().Tree()) {
		t.Fatalf("wal digest %s does not match the tree", page.Digest)
	}
	if page.Records[0].Seq != 1 || page.Records[0].Op.Kind != core.OpIntegrate {
		t.Fatalf("first record %+v", page.Records[0])
	}

	page = getWire(t, ts.URL+"/dbs/x/wal?since=1&limit=1", http.StatusOK, replica.DecodeWALPage)
	if len(page.Records) != 1 || page.Records[0].Seq != 2 {
		t.Fatalf("paged wal %+v", page)
	}

	// Caught-up long-poll returns empty after the wait.
	start := time.Now()
	page = getWire(t, ts.URL+"/dbs/x/wal?since=2&wait=80", http.StatusOK, replica.DecodeWALPage)
	if len(page.Records) != 0 {
		t.Fatalf("caught-up poll returned %d records", len(page.Records))
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("long-poll returned immediately; wait was not honored")
	}

	// A commit unblocks a parked long-poll.
	type res struct {
		page *replica.WALPage
		dur  time.Duration
	}
	ch := make(chan res, 1)
	go func() {
		start := time.Now()
		p := getWire(t, ts.URL+"/dbs/x/wal?since=2&wait=10000", http.StatusOK, replica.DecodeWALPage)
		ch <- res{p, time.Since(start)}
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := db.Core().IntegrateXMLString(abookC); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if len(r.page.Records) != 1 || r.page.Records[0].Seq != 3 {
			t.Fatalf("woken poll %+v", r.page)
		}
		if r.dur > 5*time.Second {
			t.Fatalf("woken poll took %v; the commit did not wake it", r.dur)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long-poll never returned")
	}

	// Beyond-the-log positions are 410 (the follower must bootstrap).
	getWire(t, ts.URL+"/dbs/x/wal?since=99", http.StatusGone, replica.DecodeWALPage)
	// Bad parameters are 400.
	getWire(t, ts.URL+"/dbs/x/wal?since=-1", http.StatusBadRequest, replica.DecodeWALPage)
	getWire(t, ts.URL+"/dbs/x/wal?wait=x", http.StatusBadRequest, replica.DecodeWALPage)
	getWire(t, ts.URL+"/dbs/x/wal?limit=-1", http.StatusBadRequest, replica.DecodeWALPage)
	getWire(t, ts.URL+"/dbs/x/wal?epoch=1e3", http.StatusBadRequest, replica.DecodeWALPage)
	for _, tab := range []string{"x", "3", "3-", "3-zz", "-3-00000000", "3-0", "3-00000000x", "3-0000000G"} {
		getWire(t, ts.URL+"/dbs/x/wal?since=1&tab="+tab, http.StatusBadRequest, replica.DecodeWALPage)
	}

	// The Accept header does not choose the format: asking for JSON gets
	// the wal2 stream too.
	for _, path := range []string{"/dbs/x/wal?since=2", "/dbs/x/snapshot"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != replica.ContentType {
			t.Fatalf("GET %s with Accept: application/json: %s, Content-Type %q", path, resp.Status, ct)
		}
	}

	// A follower that has seen a higher epoch deposes this node: 409, and
	// it steps down.
	getWire(t, ts.URL+"/dbs/x/wal?since=3&epoch=5", http.StatusConflict, replica.DecodeWALPage)
	var ps replica.PrimaryStatus
	getJSON(t, ts.URL+"/replication", http.StatusOK, &ps)
	if ps.Role != "demoted" {
		t.Fatalf("after a wal request at a higher epoch the node is %q, want demoted", ps.Role)
	}
}

// TestReplicationShipCostCounters drives the wal2 wire the way a tailing
// follower does — keep the table a page leaves behind, name it in the
// next request — and reads back what /stats says it cost: a page whose
// table the follower named carries no I frame and counts under
// wire.prefix_skipped, a table named with the wrong checksum is sent
// whole, and wal.ship_pages / ship_scans / ship_read_bytes say that every
// page was read through the index.
func TestReplicationShipCostCounters(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{abookA, abookB, abookC} {
		if _, err := db.Core().IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
	}
	var tab codec.StrTab
	fetch := func(query string) (page *replica.WALPage, prefixed bool) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/dbs/x/wal?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET wal?%s: %s, err %v", query, resp.Status, err)
		}
		_, rest, err := codec.ParseFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		second, _, err := codec.ParseFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		if page, err = replica.DecodeWALPageFrom(bytes.NewReader(body), &tab); err != nil {
			t.Fatalf("GET wal?%s: %v", query, err)
		}
		return page, second.Kind == codec.KindStrTab
	}
	if page, prefixed := fetch("since=1&limit=1"); !prefixed || len(page.Records) != 1 {
		t.Fatalf("first page of a follower without a table: %d record(s), prefix sent: %v", len(page.Records), prefixed)
	}
	held := tab.Mark()
	if held.Len == 0 {
		t.Fatal("the first page left no table behind")
	}
	wrong := held
	wrong.Sum++
	if page, prefixed := fetch("since=2&tab=" + wrong.String()); !prefixed || len(page.Records) != 1 {
		t.Fatalf("table named with a wrong checksum: %d record(s), prefix sent: %v", len(page.Records), prefixed)
	}
	tab.Reset() // and once more, from the start
	fetch("since=1&limit=1")
	page, prefixed := fetch("since=2&tab=" + held.String())
	if prefixed || len(page.Records) != 1 || page.Records[0].Seq != 3 {
		t.Fatalf("table named correctly: %+v, prefix sent: %v", page.Records, prefixed)
	}
	want, err := xmlcodec.DecodeString(abookC)
	if err != nil {
		t.Fatal(err)
	}
	if got := page.Records[0].Op.SourceTrees; len(got) != 1 || !pxml.Equal(got[0].Root(), want.Root()) {
		t.Fatalf("record decoded over the held table: %+v", page.Records[0].Op)
	}

	var raw struct {
		WAL  map[string]any `json:"wal"`
		Wire map[string]any `json:"wire"`
	}
	getJSON(t, ts.URL+"/dbs/x/stats", http.StatusOK, &raw)
	if raw.WAL["ship_pages"] != 4.0 || raw.WAL["ship_scans"] != 0.0 || raw.WAL["appended_bytes"] == nil {
		t.Fatalf("wal section: %v", raw.WAL)
	}
	// Pages 2, 3, 2, 3 of a three-record segment: frames 2 and 3, twice.
	st := db.Stats().WAL
	var first catalog.RawWALRecord
	if raws, _, err := db.RawOpsSince(0, 1, codec.TabMark{}); err != nil || len(raws) != 1 {
		t.Fatal(err)
	} else {
		first = raws[0]
	}
	if want := 2 * (st.AppendedBytes - int64(len(first.Payload)) - 8); raw.WAL["ship_read_bytes"] != float64(want) {
		t.Fatalf("ship_read_bytes %v, frames 2 and 3 twice are %d bytes", raw.WAL["ship_read_bytes"], want)
	}
	if raw.Wire["pages"] != 4.0 || raw.Wire["prefix_skipped"] != 1.0 {
		t.Fatalf("wire section: %v", raw.Wire)
	}
}

// TestWALEndpointGoneAfterCompaction: positions compacted out of the log
// are 410, with the snapshot position still servable.
func TestWALEndpointGoneAfterCompaction(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{SegmentBytes: 1, CompactEvery: -1})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookB); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	getWire(t, ts.URL+"/dbs/x/wal?since=0", http.StatusGone, replica.DecodeWALPage)
	page := getWire(t, ts.URL+"/dbs/x/wal?since=2", http.StatusOK, replica.DecodeWALPage)
	if len(page.Records) != 0 {
		t.Fatalf("snapshot-position poll returned %d records", len(page.Records))
	}
}

// TestSnapshotEndpoint: the bootstrap payload round-trips to the
// primary's exact state.
func TestSnapshotEndpoint(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookB); err != nil {
		t.Fatal(err)
	}
	payload := getWire(t, ts.URL+"/dbs/x/snapshot", http.StatusOK, replica.DecodeSnapshot)
	if payload.Database != "x" || payload.Seq != 2 || payload.FormatVersion == 0 {
		t.Fatalf("snapshot payload header %+v", payload)
	}
	tree := payload.Tree
	if !pxml.Equal(tree.Root(), db.Core().Tree().Root()) {
		t.Fatal("snapshot tree differs from the live tree")
	}
	if payload.Digest != replica.DigestString(tree) {
		t.Fatalf("snapshot digest %s does not match its tree", payload.Digest)
	}
	if payload.Integrations != 2 {
		t.Fatalf("snapshot carries %d integrations, want 2", payload.Integrations)
	}
}

// TestReplicationStatusPrimary: the primary reports role and positions.
func TestReplicationStatusPrimary(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}
	var ps replica.PrimaryStatus
	getJSON(t, ts.URL+"/replication", http.StatusOK, &ps)
	if ps.Role != "primary" || len(ps.Databases) != 1 {
		t.Fatalf("replication status %+v", ps)
	}
	row := ps.Databases[0]
	if row.Name != "x" || row.LastSeq != 1 || row.Digest == "" {
		t.Fatalf("replication row %+v", row)
	}
}

// TestHealthzVerbose: the bare probe keeps its one-field contract; the
// verbose form reports per-database positions, and on a replica the lag.
func TestHealthzVerbose(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}

	// Plain probe: exactly the legacy body.
	data := getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	var plain map[string]any
	if err := json.Unmarshal(data, &plain); err != nil || len(plain) != 1 || plain["status"] != "ok" {
		t.Fatalf("plain healthz body %s", data)
	}

	var hr HealthResponse
	getJSON(t, ts.URL+"/healthz?verbose=1", http.StatusOK, &hr)
	if hr.Status != "ok" || hr.Role != "primary" || len(hr.Databases) != 1 {
		t.Fatalf("verbose healthz %+v", hr)
	}
	row := hr.Databases[0]
	if row.Name != "x" || row.CommittedSeq != 1 || row.AppliedSeq != 1 || row.TailOps != 1 {
		t.Fatalf("verbose healthz row %+v", row)
	}
	getJSON(t, ts.URL+"/healthz?verbose=2", http.StatusBadRequest, nil)

	// Replica: role, primary address, connection state and lag appear.
	rep, err := replica.Open(t.TempDir(), replica.Options{
		Primary:         ts.URL,
		Catalog:         catalog.Options{RootTag: "addressbook"},
		PollWait:        100 * time.Millisecond,
		MembershipEvery: 20 * time.Millisecond,
		MinBackoff:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rts := httptest.NewServer(NewReplica(rep, Options{}).Handler())
	defer rts.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var rh HealthResponse
		getJSON(t, rts.URL+"/healthz?verbose=1", http.StatusOK, &rh)
		if rh.Role == "replica" && rh.Primary == ts.URL && rh.Connected != nil && *rh.Connected &&
			len(rh.Databases) == 1 && rh.Databases[0].CommittedSeq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica verbose healthz never converged: %+v", rh)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicaRejectsMutations: every mutating verb on a replica is 403
// with the primary's address; reads behave, and root paths are 404s.
func TestReplicaRejectsMutations(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{})
	db, err := cat.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Open(t.TempDir(), replica.Options{
		Primary:         ts.URL,
		Catalog:         catalog.Options{RootTag: "addressbook"},
		PollWait:        100 * time.Millisecond,
		MembershipEvery: 20 * time.Millisecond,
		MinBackoff:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rts := httptest.NewServer(NewReplica(rep, Options{}).Handler())
	defer rts.Close()

	// Wait for x to replicate so reads have something to serve.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := rep.Catalog().Get("x"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("x never replicated")
		}
		time.Sleep(10 * time.Millisecond)
	}

	mutations := []struct{ method, path, body string }{
		{"POST", "/dbs/x/integrate", abookB},
		{"POST", "/dbs/x/integrate/batch", `{"sources":["<a/>"]}`},
		{"POST", "/dbs/x/feedback", `{"query":"//a","value":"v","correct":true}`},
		{"POST", "/dbs/x/load", `{"name":"s"}`},
		{"PUT", "/dbs/y", ""},
		{"DELETE", "/dbs/x", ""},
	}
	for _, m := range mutations {
		req, err := http.NewRequest(m.method, rts.URL+m.path, strings.NewReader(m.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var ro ReadOnlyError
		err = json.NewDecoder(resp.Body).Decode(&ro)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s: status %d, want 403", m.method, m.path, resp.StatusCode)
		}
		if err != nil || ro.Primary != ts.URL {
			t.Fatalf("%s %s: body primary %q (err %v), want %q", m.method, m.path, ro.Primary, err, ts.URL)
		}
		if resp.Header.Get("Location") != ts.URL {
			t.Fatalf("%s %s: Location %q, want %q", m.method, m.path, resp.Header.Get("Location"), ts.URL)
		}
	}

	// Reads work, stats carry the replicated database.
	var sr StatsResponse
	getJSON(t, rts.URL+"/dbs/x/stats", http.StatusOK, &sr)
	if sr.Database != "x" || sr.WAL == nil || sr.WAL.LastSeq != 1 {
		t.Fatalf("replica stats %+v", sr)
	}
	// A root path is no route, on a replica too, and creates nothing.
	getJSON(t, rts.URL+"/query?q=%2F%2Fperson", http.StatusNotFound, nil)
	if _, err := rep.Catalog().Get(catalog.DefaultName); err == nil {
		t.Fatal("a root path created the default database on a replica")
	}
}

// TestStatsExposesKnobs: the tuning knobs land in /stats.
func TestStatsExposesKnobs(t *testing.T) {
	cat, ts := newPrimaryServer(t, catalog.Options{SegmentBytes: 12345, CompactEvery: 7})
	if _, err := cat.Get("x"); err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	getJSON(t, ts.URL+"/dbs/x/stats", http.StatusOK, &sr)
	if sr.WAL == nil || sr.WAL.SegmentLimitBytes != 12345 || sr.WAL.CompactEvery != 7 {
		t.Fatalf("stats knobs %+v", sr.WAL)
	}
}

const (
	abookA = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
	abookB = `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`
	abookC = `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`
)
