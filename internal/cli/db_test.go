package cli

import (
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

const (
	dbSrcA = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
	dbSrcB = `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := Run(args, &sb); err != nil {
		t.Fatalf("Run(%v): %v\noutput: %s", args, err, sb.String())
	}
	return sb.String()
}

func TestDBCreateListStatsDrop(t *testing.T) {
	data := t.TempDir()
	out := runCLI(t, "db", "-data", data, "create", "movies")
	if !strings.Contains(out, "created: movies") {
		t.Fatalf("create output: %s", out)
	}
	out = runCLI(t, "db", "-data", data, "list")
	if !strings.Contains(out, "movies") {
		t.Fatalf("list output: %s", out)
	}
	out = runCLI(t, "db", "-data", data, "stats", "movies")
	if !strings.Contains(out, "database:        movies") || !strings.Contains(out, "integrations:    0") {
		t.Fatalf("stats output: %s", out)
	}
	runCLI(t, "db", "-data", data, "drop", "movies")
	out = runCLI(t, "db", "-data", data, "list")
	if !strings.Contains(out, "(no databases)") {
		t.Fatalf("list after drop: %s", out)
	}
	// Errors: missing name, unknown verb, unknown database.
	var sb strings.Builder
	if err := Run([]string{"db", "-data", data, "create"}, &sb); err == nil {
		t.Fatalf("create without name should fail")
	}
	if err := Run([]string{"db", "-data", data, "frobnicate"}, &sb); err == nil {
		t.Fatalf("unknown verb should fail")
	}
	if err := Run([]string{"db", "-data", data, "stats", "nope"}, &sb); err == nil {
		t.Fatalf("stats on missing database should fail")
	}
	if err := Run([]string{"db", "list"}, &sb); err == nil {
		t.Fatalf("missing -data should fail")
	}
}

// TestDBStatsAfterKillShowsRecoveredState is the CLI half of the
// kill-restart acceptance: mutate a database through a catalog, abandon
// it without shutdown, and read the recovered counts back with
// `imprecise db stats`.
func TestDBStatsAfterKillShowsRecoveredState(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	cat, err := catalog.Open(data, catalog.Options{RootTag: "addressbook", CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("movies")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{dbSrcA, dbSrcB} {
		if _, err := db.Core().IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Core().Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatal(err)
	}
	wantWorlds := db.Core().WorldCount().String()

	// Kill: clone only the fsynced bytes, never call Close.
	killed := filepath.Join(dir, "killed")
	copyAll(t, data, killed)

	// -full: the quick path reads manifests only, and this catalog never
	// compacted — the live counts exist solely in the replayed log.
	out := runCLI(t, "db", "-data", killed, "-full", "stats", "movies")
	for _, want := range []string{
		"integrations:    2",
		"feedback events: 1",
		"possible worlds: " + wantWorlds,
		"3 op(s) recovered at open",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats after kill missing %q:\n%s", want, out)
		}
	}
	cat.Close()
}

// TestDBQuickListManifestOnly is the regression test for the
// manifest-only stat path: `db list`/`db stats` must answer without
// decoding document payloads or taking the catalog lock — a corrupt
// document and a concurrently held directory both stop -full but not
// the quick path.
func TestDBQuickListManifestOnly(t *testing.T) {
	data := t.TempDir()
	cat, err := catalog.Open(data, catalog.Options{RootTag: "addressbook"})
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("movies")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Core().IntegrateXMLString(dbSrcA); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	wantWorlds := db.Core().WorldCount().String()

	// While the catalog holds the directory lock, the quick path still
	// answers; -full must refuse (single-process lock).
	out := runCLI(t, "db", "-data", data, "list")
	if !strings.Contains(out, "movies") || !strings.Contains(out, wantWorlds+" worlds") {
		t.Fatalf("quick list under lock: %s", out)
	}
	var sb strings.Builder
	if err := Run([]string{"db", "-data", data, "-full", "list"}, &sb); err == nil {
		t.Fatal("-full list succeeded while another process holds the directory")
	}
	cat.Close()

	out = runCLI(t, "db", "-data", data, "stats", "movies")
	for _, want := range []string{"possible worlds: " + wantWorlds, "integrations:    1", "manifest-only"} {
		if !strings.Contains(out, want) {
			t.Fatalf("quick stats missing %q:\n%s", want, out)
		}
	}

	// Corrupt the snapshot's document payload: the quick path never reads
	// it, the full path must fail loudly.
	docs, err := filepath.Glob(filepath.Join(data, "movies", "state", "document-*.bin"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no document payload found: %v (%v)", docs, err)
	}
	for _, doc := range docs {
		if err := os.WriteFile(doc, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out = runCLI(t, "db", "-data", data, "list")
	if !strings.Contains(out, "movies") {
		t.Fatalf("quick list after payload corruption: %s", out)
	}
	sb.Reset()
	if err := Run([]string{"db", "-data", data, "-full", "list"}, &sb); err == nil {
		t.Fatal("-full list accepted a corrupt document payload")
	}
}

// TestDBQuickListFlagsUnloadableFormat: the manifest-only listing names a
// snapshot whose format version this build cannot load — v4 and v7 — and
// leaves the loadable v5 and v6 unflagged.
func TestDBQuickListFlagsUnloadableFormat(t *testing.T) {
	data := t.TempDir()
	for v := 4; v <= 7; v++ {
		state := filepath.Join(data, fmt.Sprintf("v%d", v), "state")
		if err := os.MkdirAll(state, 0o755); err != nil {
			t.Fatal(err)
		}
		manifest := fmt.Sprintf(`{"format_version":%d,"worlds":"1"}`, v)
		if err := os.WriteFile(filepath.Join(state, "manifest.json"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := catalog.QuickStats(data)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, qs := range stats {
		flagged[qs.Name] = qs.Unloadable != ""
	}
	if want := map[string]bool{"v4": true, "v5": false, "v6": false, "v7": true}; !maps.Equal(flagged, want) {
		t.Fatalf("unloadable = %v, want %v", flagged, want)
	}
	out := runCLI(t, "db", "-data", data, "list")
	if n := strings.Count(out, "UNLOADABLE"); n != 2 || !strings.Contains(out, "version 4") || !strings.Contains(out, "version 7") {
		t.Fatalf("quick list flags %d snapshot(s), want v4 and v7:\n%s", n, out)
	}
	if out := runCLI(t, "db", "-data", data, "stats", "v7"); !strings.Contains(out, "UNLOADABLE") {
		t.Fatalf("quick stats of a v7 snapshot does not flag it:\n%s", out)
	}
	if out := runCLI(t, "db", "-data", data, "stats", "v6"); strings.Contains(out, "UNLOADABLE") {
		t.Fatalf("quick stats flags a loadable v6 snapshot:\n%s", out)
	}
}

// TestDBQuickListSurvivesUnreadableManifest: one database whose manifest
// cannot be read is flagged in its own row, and hides none of the others.
func TestDBQuickListSurvivesUnreadableManifest(t *testing.T) {
	data := t.TempDir()
	for name, manifest := range map[string]string{
		"good": `{"format_version":6,"worlds":"12","logical_nodes":345}`,
		"bad":  `{not json`,
	} {
		state := filepath.Join(data, name, "state")
		if err := os.MkdirAll(state, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(state, "manifest.json"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := runCLI(t, "db", "-data", data, "list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "bad ") || !strings.Contains(lines[1], "UNLOADABLE") ||
		!strings.HasPrefix(lines[2], "good ") || !strings.Contains(lines[2], "345 nodes") || !strings.Contains(lines[2], "12 worlds") {
		t.Fatalf("quick list:\n%s", out)
	}
	if out := runCLI(t, "db", "-data", data, "stats", "good"); !strings.Contains(out, "logical nodes:   345") || strings.Contains(out, "UNLOADABLE") {
		t.Fatalf("quick stats of good:\n%s", out)
	}
	if out := runCLI(t, "db", "-data", data, "stats", "bad"); !strings.Contains(out, "UNLOADABLE") {
		t.Fatalf("quick stats of bad does not flag it:\n%s", out)
	}
}

func copyAll(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copyAll: %v", err)
	}
}

// TestServeDataEndToEnd boots `imprecise serve -data`, creates a
// database over HTTP, mutates it, restarts the server on the same
// directory and checks the database recovered.
func TestServeDataEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")

	serve := func() (string, net.Listener, chan error) {
		lnCh := make(chan net.Listener, 1)
		old := serveListen
		serveListen = func(network, addr string) (net.Listener, error) {
			ln, err := net.Listen(network, "127.0.0.1:0")
			if err == nil {
				lnCh <- ln
			}
			return ln, err
		}
		t.Cleanup(func() { serveListen = old })
		done := make(chan error, 1)
		go func() {
			var sb strings.Builder
			done <- Run([]string{"serve", "-quiet", "-root", "addressbook", "-data", data}, &sb)
		}()
		select {
		case ln := <-lnCh:
			return "http://" + ln.Addr().String(), ln, done
		case err := <-done:
			t.Fatalf("serve -data exited before listening: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatalf("serve -data did not start")
		}
		return "", nil, nil
	}
	req := func(base, method, path, body string, want int) []byte {
		t.Helper()
		r, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d; body %s", method, path, resp.StatusCode, want, b)
		}
		return b
	}

	base, ln, done := serve()
	req(base, "PUT", "/dbs/movies", "", http.StatusCreated)
	req(base, "POST", "/dbs/movies/integrate", dbSrcA, http.StatusOK)
	req(base, "POST", "/dbs/movies/integrate", dbSrcB, http.StatusOK)
	statsBefore := string(req(base, "GET", "/dbs/movies/stats", "", http.StatusOK))
	ln.Close()
	if err := <-done; err != nil {
		t.Fatalf("first serve: %v", err)
	}

	base2, ln2, done2 := serve()
	statsAfter := string(req(base2, "GET", "/dbs/movies/stats", "", http.StatusOK))
	if !strings.Contains(statsAfter, `"integrations": 2`) {
		t.Fatalf("restarted stats lost history:\nbefore %s\nafter %s", statsBefore, statsAfter)
	}
	ln2.Close()
	if err := <-done2; err != nil {
		t.Fatalf("second serve: %v", err)
	}
}
