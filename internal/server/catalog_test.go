package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/server"
)

const bookC = `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`

// newCatalogServer serves a catalog rooted at dir.
func newCatalogServer(t *testing.T, dir string) (*httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(dir, catalog.Options{
		Config:       core.Config{Schema: personDTD},
		RootTag:      "addressbook",
		CompactEvery: -1,
	})
	if err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	t.Cleanup(func() { cat.Close() })
	ts := httptest.NewServer(server.NewCatalog(cat, server.Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts, cat
}

func TestCatalogCreateListDrop(t *testing.T) {
	ts, _ := newCatalogServer(t, t.TempDir())

	var created server.CreateDBResponse
	doJSON(t, "PUT", ts.URL+"/dbs/movies", "", nil, http.StatusCreated, &created)
	if created.Name != "movies" {
		t.Fatalf("create = %+v", created)
	}
	// A second database, a duplicate, and an invalid name.
	doJSON(t, "PUT", ts.URL+"/dbs/books", "", nil, http.StatusCreated, nil)
	doJSON(t, "PUT", ts.URL+"/dbs/movies", "", nil, http.StatusConflict, nil)
	doJSON(t, "PUT", ts.URL+"/dbs/.evil", "", nil, http.StatusBadRequest, nil)

	var list server.DBListResponse
	doJSON(t, "GET", ts.URL+"/dbs", "", nil, http.StatusOK, &list)
	if len(list.Databases) != 2 || list.Databases[0].Name != "books" || list.Databases[1].Name != "movies" {
		t.Fatalf("list = %+v", list)
	}
	if list.Databases[0].WAL == nil {
		t.Fatalf("listing lacks durability stats")
	}

	doJSON(t, "DELETE", ts.URL+"/dbs/books", "", nil, http.StatusOK, nil)
	doJSON(t, "DELETE", ts.URL+"/dbs/books", "", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/dbs/books/stats", "", nil, http.StatusNotFound, nil)
}

// TestRouteTableRootPathsCreateNothing: a per-database verb answers only
// under /dbs/{name}, and only PUT /dbs/{name} creates a database. Each
// verb at its root path is a 404 that leaves the catalog empty and writes
// no database directory, and POST /dbs is not a route.
func TestRouteTableRootPathsCreateNothing(t *testing.T) {
	dir := t.TempDir()
	ts, cat := newCatalogServer(t, dir)
	for _, v := range []struct{ method, path, body string }{
		{"POST", "/integrate", bookA},
		{"POST", "/integrate/batch", `{"sources":["<addressbook/>"]}`},
		{"GET", "/query?q=%2F%2Fperson", ""},
		{"POST", "/feedback", `{"query":"//person/tel","value":"1111","correct":true}`},
		{"GET", "/stats", ""},
		{"GET", "/worlds", ""},
		{"GET", "/export", ""},
		{"POST", "/save", `{"name":"s"}`},
		{"POST", "/load", `{"name":"s"}`},
		{"GET", "/wal?since=0", ""},
		{"GET", "/snapshot", ""},
	} {
		doJSON(t, v.method, ts.URL+v.path, "", strings.NewReader(v.body), http.StatusNotFound, nil)
	}
	doJSON(t, "POST", ts.URL+"/dbs", "application/json",
		strings.NewReader(`{"name":"movies"}`), http.StatusMethodNotAllowed, nil)
	if names := cat.Names(); len(names) != 0 {
		t.Fatalf("catalog names = %v, want none", names)
	}
	for _, name := range []string{catalog.DefaultName, "movies"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s/ written: %v", name, err)
		}
	}
}

func TestCatalogPerDatabaseVerbs(t *testing.T) {
	ts, _ := newCatalogServer(t, t.TempDir())
	doJSON(t, "PUT", ts.URL+"/dbs/x", "", nil, http.StatusCreated, nil)

	var ir server.IntegrateResponse
	doJSON(t, "POST", ts.URL+"/dbs/x/integrate", "application/xml",
		strings.NewReader(bookA), http.StatusOK, &ir)
	doJSON(t, "POST", ts.URL+"/dbs/x/integrate", "application/xml",
		strings.NewReader(bookB), http.StatusOK, &ir)
	if ir.Worlds != "3" {
		t.Fatalf("worlds after B = %s", ir.Worlds)
	}

	var qr server.QueryResponse
	doJSON(t, "GET", ts.URL+"/dbs/x/query?q="+url.QueryEscape(`//person[nm="John"]/tel`),
		"", nil, http.StatusOK, &qr)
	if len(qr.Answers) != 2 {
		t.Fatalf("answers = %+v", qr.Answers)
	}

	var fr server.FeedbackResponse
	doJSON(t, "POST", ts.URL+"/dbs/x/feedback", "application/json",
		strings.NewReader(`{"query":"//person[nm=\"John\"]/tel","value":"2222","correct":false}`),
		http.StatusOK, &fr)
	if fr.WorldsAfter != "1" {
		t.Fatalf("feedback = %+v", fr)
	}

	var st server.StatsResponse
	doJSON(t, "GET", ts.URL+"/dbs/x/stats", "", nil, http.StatusOK, &st)
	if st.Database != "x" || st.Integrations != 2 || st.FeedbackCount != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WAL == nil || st.WAL.LastSeq != 3 || st.WAL.TailOps != 3 {
		t.Fatalf("wal stats = %+v", st.WAL)
	}

	// Databases are isolated: a second database sees none of it.
	doJSON(t, "PUT", ts.URL+"/dbs/y", "", nil, http.StatusCreated, nil)
	var sty server.StatsResponse
	doJSON(t, "GET", ts.URL+"/dbs/y/stats", "", nil, http.StatusOK, &sty)
	if sty.Integrations != 0 || sty.Worlds != "1" {
		t.Fatalf("y stats = %+v", sty)
	}
}

// TestCatalogSaveLoadConstrained proves /save and /load never accept
// filesystem paths: only simple names inside the server's data root.
func TestCatalogSaveLoadConstrained(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newCatalogServer(t, dir)
	doJSON(t, "PUT", ts.URL+"/dbs/x", "", nil, http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/dbs/x/integrate", "application/xml",
		strings.NewReader(bookA), http.StatusOK, nil)

	var saved server.SnapshotResponse
	doJSON(t, "POST", ts.URL+"/dbs/x/save", "application/json",
		strings.NewReader(`{"name":"exp1"}`), http.StatusOK, &saved)
	if saved.Name != "exp1" {
		t.Fatalf("save = %+v", saved)
	}
	if _, err := os.Stat(filepath.Join(dir, "x", "snapshots", "exp1", "manifest.json")); err != nil {
		t.Fatalf("snapshot not under the data root: %v", err)
	}
	for _, bad := range []string{`../escape`, `/etc/cron.d/x`, `a/b`, `a\b`, `..`} {
		body := fmt.Sprintf(`{"name":%q}`, bad)
		doJSON(t, "POST", ts.URL+"/dbs/x/save", "application/json",
			strings.NewReader(body), http.StatusBadRequest, nil)
		doJSON(t, "POST", ts.URL+"/dbs/x/load", "application/json",
			strings.NewReader(body), http.StatusBadRequest, nil)
	}
	// Nothing escaped: the attempts left no files above the data root.
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); !os.IsNotExist(err) {
		t.Fatalf("escape attempt materialized: %v", err)
	}
	doJSON(t, "POST", ts.URL+"/dbs/x/integrate", "application/xml",
		strings.NewReader(bookB), http.StatusOK, nil)
	var loaded server.SnapshotResponse
	doJSON(t, "POST", ts.URL+"/dbs/x/load", "application/json",
		strings.NewReader(`{"name":"exp1"}`), http.StatusOK, &loaded)
	if loaded.Worlds != "1" {
		t.Fatalf("load = %+v", loaded)
	}
}

// TestSaveWithoutNameRepliesWithWrittenName: a /save without a name writes
// the catalog's default snapshot, and its reply names the directory that
// was written; /load without a name reads it back under the same name.
func TestSaveWithoutNameRepliesWithWrittenName(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newCatalogServer(t, dir)
	doJSON(t, "PUT", ts.URL+"/dbs/x", "", nil, http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/dbs/x/integrate", "application/xml",
		strings.NewReader(bookA), http.StatusOK, nil)

	var saved, loaded server.SnapshotResponse
	doJSON(t, "POST", ts.URL+"/dbs/x/save", "application/json", strings.NewReader(`{}`), http.StatusOK, &saved)
	entries, err := os.ReadDir(filepath.Join(dir, "x", "snapshots"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("snapshots written: %v, %v", entries, err)
	}
	if saved.Name == "" || saved.Name != entries[0].Name() {
		t.Fatalf("save replied with name %q, wrote %q", saved.Name, entries[0].Name())
	}
	doJSON(t, "POST", ts.URL+"/dbs/x/load", "application/json", strings.NewReader(`{}`), http.StatusOK, &loaded)
	if loaded.Name != saved.Name {
		t.Fatalf("load replied with name %q, save with %q", loaded.Name, saved.Name)
	}
}

// TestCatalogKillRestartOverHTTP is the acceptance scenario end to end:
// mutate a named database over HTTP, kill without shutdown, reopen the
// catalog and serve it again — /dbs/{name}/stats reports the identical
// document and intact histories.
func TestCatalogKillRestartOverHTTP(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	ts, _ := newCatalogServer(t, data)
	doJSON(t, "PUT", ts.URL+"/dbs/movies", "", nil, http.StatusCreated, nil)
	for _, src := range []string{bookA, bookB, bookC} {
		doJSON(t, "POST", ts.URL+"/dbs/movies/integrate", "application/xml",
			strings.NewReader(src), http.StatusOK, nil)
	}
	doJSON(t, "POST", ts.URL+"/dbs/movies/feedback", "application/json",
		strings.NewReader(`{"query":"//person[nm=\"John\"]/tel","value":"2222","correct":false}`),
		http.StatusOK, nil)
	var before server.StatsResponse
	doJSON(t, "GET", ts.URL+"/dbs/movies/stats", "", nil, http.StatusOK, &before)
	var exported string
	{
		resp, err := http.Get(ts.URL + "/dbs/movies/export")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		exported = string(b)
	}

	// Kill: copy the fsynced disk state while the first server is live.
	killed := filepath.Join(dir, "killed")
	copyTree(t, data, killed)
	ts2, _ := newCatalogServer(t, killed)
	var after server.StatsResponse
	doJSON(t, "GET", ts2.URL+"/dbs/movies/stats", "", nil, http.StatusOK, &after)
	if after.Worlds != before.Worlds || after.LogicalNodes != before.LogicalNodes ||
		after.Integrations != before.Integrations || after.FeedbackCount != before.FeedbackCount {
		t.Fatalf("recovered stats differ:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.WAL == nil || after.WAL.RecoveredOps != 4 {
		t.Fatalf("recovered WAL stats = %+v", after.WAL)
	}
	resp, err := http.Get(ts2.URL + "/dbs/movies/export")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != exported {
		t.Fatalf("recovered export differs from pre-kill export")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copyTree: %v", err)
	}
}

// TestLegacySaveLoadRejectsPaths pins the path constraint on the
// snapshot names of /save and /load: absolute paths, traversal and the
// dot names are 400s.
func TestLegacySaveLoadRejectsPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, bad := range []string{`../evil`, `/etc/passwd`, `a/b`, `a\b`, `..`, `.`} {
		body := fmt.Sprintf(`{"name":%q}`, bad)
		doJSON(t, "POST", ts.URL+"/dbs/default/save", "application/json",
			strings.NewReader(body), http.StatusBadRequest, nil)
		doJSON(t, "POST", ts.URL+"/dbs/default/load", "application/json",
			strings.NewReader(body), http.StatusBadRequest, nil)
	}
}
