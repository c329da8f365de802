package cli

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/server"
)

// startServe boots one `imprecise serve` invocation on an ephemeral port
// and returns its base URL plus a shutdown func.
func startServe(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	lnCh := make(chan net.Listener, 1)
	old := serveListen
	serveListen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, "127.0.0.1:0")
		if err == nil {
			lnCh <- ln
		}
		return ln, err
	}
	done := make(chan error, 1)
	go func() {
		var sb strings.Builder
		done <- Run(append([]string{"serve", "-quiet"}, args...), &sb)
	}()
	var ln net.Listener
	select {
	case ln = <-lnCh:
	case err := <-done:
		serveListen = old
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		serveListen = old
		t.Fatalf("serve did not start listening")
	}
	serveListen = old
	stop := func() {
		ln.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve returned error after close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("serve did not exit after listener close")
		}
	}
	return "http://" + ln.Addr().String(), stop
}

// TestServeReplicaOf is the two-process cluster smoke test at the CLI
// level: a primary with -data takes writes, `serve -replica-of` follows
// it, serves the replicated reads, and 403s writes; `imprecise
// replication status` reports both sides.
func TestServeReplicaOf(t *testing.T) {
	dir := t.TempDir()
	primaryURL, stopPrimary := startServe(t,
		"-data", filepath.Join(dir, "primary"),
		"-root", "addressbook",
		"-compact-every", "5",
		"-wal-segment-bytes", "65536",
	)
	defer stopPrimary()

	// Create a database and write through the primary.
	post := func(base, path, ct, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(base+path, ct, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d; body %s", path, resp.StatusCode, want, data)
		}
		return data
	}
	post(primaryURL, "/dbs", "application/json", `{"name":"movies"}`, http.StatusCreated)
	post(primaryURL, "/dbs/movies/integrate", "application/xml",
		`<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`, http.StatusOK)

	// The knobs must surface in /stats.
	resp, err := http.Get(primaryURL + "/dbs/movies/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		WAL struct {
			SegmentLimitBytes int64 `json:"segment_limit_bytes"`
			CompactEvery      int   `json:"compact_every"`
			StoreFormat       int   `json:"store_format"`
		} `json:"wal"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || sr.WAL.SegmentLimitBytes != 65536 || sr.WAL.CompactEvery != 5 {
		t.Fatalf("stats knobs %+v (err %v)", sr.WAL, err)
	}
	// The format observability: the snapshot format this build writes.
	if sr.WAL.StoreFormat != 6 {
		t.Fatalf("stats format fields %+v", sr.WAL)
	}

	replicaURL, stopReplica := startServe(t,
		"-data", filepath.Join(dir, "replica"),
		"-root", "addressbook",
		"-replica-of", primaryURL,
	)
	defer stopReplica()

	// Wait until the replica serves the replicated database.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(replicaURL + "/dbs/movies/query?q=%2F%2Fperson%2Ftel")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never served the replicated database")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Writes on the replica are 403 with the primary address.
	data := post(replicaURL, "/dbs/movies/integrate", "application/xml", `<addressbook/>`, http.StatusForbidden)
	var ro struct {
		Primary string `json:"primary"`
	}
	if err := json.Unmarshal(data, &ro); err != nil || ro.Primary != primaryURL {
		t.Fatalf("403 body %s (err %v), want primary %q", data, err, primaryURL)
	}

	// `imprecise replication status` against both roles.
	var out strings.Builder
	if err := Run([]string{"replication", "-url", primaryURL, "status"}, &out); err != nil {
		t.Fatalf("replication status (primary): %v", err)
	}
	if got := out.String(); !strings.Contains(got, "role:      primary") || !strings.Contains(got, "movies") {
		t.Fatalf("primary status output:\n%s", got)
	}
	out.Reset()
	deadline = time.Now().Add(30 * time.Second)
	for {
		out.Reset()
		if err := Run([]string{"replication", "-url", replicaURL, "status"}, &out); err != nil {
			t.Fatalf("replication status (replica): %v", err)
		}
		if s := out.String(); strings.Contains(s, "role:      replica") && strings.Contains(s, "caught up") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica status never caught up:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := out.String(); !strings.Contains(got, "primary:   "+primaryURL) {
		t.Fatalf("replica status output:\n%s", got)
	}
}

// TestServeReplicaFlagValidation: -replica-of without -data (or with
// -db) is a usage error before anything binds or syncs.
func TestServeReplicaFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := Run([]string{"serve", "-replica-of", "http://localhost:1"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "-data") {
		t.Fatalf("missing -data not rejected: %v", err)
	}
	if err := Run([]string{"serve", "-replica-of", "http://localhost:1",
		"-data", t.TempDir(), "-db", "x.xml"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "-db") {
		t.Fatalf("-db with -replica-of not rejected: %v", err)
	}
}

// TestReplicationStatusCmdErrors: the status verb validates its
// arguments and surfaces HTTP failures.
func TestReplicationStatusCmdErrors(t *testing.T) {
	var sb strings.Builder
	if err := Run([]string{"replication"}, &sb); err == nil || !strings.Contains(err.Error(), "status") {
		t.Fatalf("missing verb not rejected: %v", err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	if err := Run([]string{"replication", "-url", ts.URL, "status"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "500") {
		t.Fatalf("HTTP failure not surfaced: %v", err)
	}
}

// TestReplicationStatusAgainstHandler exercises the printer against a
// real catalog handler without going through serve.
func TestReplicationStatusAgainstHandler(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), catalog.Options{RootTag: "addressbook"})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if _, err := cat.Create("x"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewCatalog(cat, server.Options{}).Handler())
	defer ts.Close()
	var out strings.Builder
	if err := Run([]string{"replication", "-url", ts.URL + "/", "status"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "x") || !strings.Contains(got, "seq") {
		t.Fatalf("status output:\n%s", got)
	}
	// The natural flag order — verb first — must work too (flag.Parse
	// stops at the first non-flag argument; the verb handler re-parses).
	out.Reset()
	if err := Run([]string{"replication", "status", "-url", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "role:      primary") {
		t.Fatalf("verb-first status output:\n%s", out.String())
	}
	if err := Run([]string{"replication", "status", "extra"}, &out); err == nil {
		t.Fatal("trailing arguments not rejected")
	}
}
