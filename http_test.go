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
// catalog, serve it, load a source and integrate a second one into the
// default database over the wire, query.
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

	for _, step := range []struct{ path, body string }{
		{"/integrate?mode=replace", qsBookA},
		{"/integrate", qsBookB},
	} {
		resp, err := http.Post(ts.URL+step.path, "application/xml", strings.NewReader(step.body))
		if err != nil {
			t.Fatalf("POST %s: %v", step.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, body %s", step.path, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(`//person/tel`))
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
