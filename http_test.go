package imprecise_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	imprecise "repro"
)

// TestNewHTTPHandler drives the public HTTP surface end to end: open a
// catalog, serve it, create a database, load a source and integrate a
// second one into it over the wire, query.
func TestNewHTTPHandler(t *testing.T) {
	cat, err := imprecise.OpenCatalog(t.TempDir(), imprecise.CatalogOptions{
		Config:  imprecise.Config{Schema: imprecise.MustParseDTD(qsDTD)},
		RootTag: "addressbook",
	})
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	defer cat.Close()
	ts := httptest.NewServer(imprecise.NewCatalogHTTPHandler(cat, imprecise.ServerOptions{}))
	defer ts.Close()

	for _, step := range []struct{ method, path, body string }{
		{"PUT", "/dbs/default", ""},
		{"POST", "/dbs/default/integrate?mode=replace", qsBookA},
		{"POST", "/dbs/default/integrate", qsBookB},
	} {
		req, err := http.NewRequest(step.method, ts.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", step.method, step.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: status %d, body %s", step.method, step.path, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/dbs/default/query?q=" + url.QueryEscape(`//person/tel`))
	if err != nil {
		t.Fatalf("GET /query: %v", err)
	}
	defer resp.Body.Close()
	var qr struct {
		Method  string `json:"method"`
		Answers []struct {
			Value string  `json:"value"`
			P     float64 `json:"p"`
		} `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode query response: %v", err)
	}
	if len(qr.Answers) != 2 || qr.Method == "" {
		t.Fatalf("query response = %+v", qr)
	}
}
