package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/feedback"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/xmlcodec"
)

var personDTD = dtd.MustParse(`
	<!ELEMENT addressbook (person*)>
	<!ELEMENT person (nm, tel?)>
	<!ELEMENT nm (#PCDATA)>
	<!ELEMENT tel (#PCDATA)>
`)

const bookA = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
const bookB = `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`

func boolPtr(b bool) *bool { return &b }

// newTestServer starts an httptest server over a fresh catalog whose
// default database holds bookA, and returns that database's core.
func newTestServer(t *testing.T) (*httptest.Server, *core.Database) {
	t.Helper()
	return serveDoc(t, mustDecode(t, bookA), core.Config{Schema: personDTD}, server.Options{})
}

// serveDoc is newTestServer over any document, config and options.
func serveDoc(t *testing.T, doc *pxml.Tree, cfg core.Config, opts server.Options) (*httptest.Server, *core.Database) {
	t.Helper()
	h, db := defaultDBHandler(t, doc, cfg, opts)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, db
}

// defaultDBHandler opens a catalog in a temp dir, replaces its default
// database's document with doc, and returns the catalog's handler and
// that database's core.
func defaultDBHandler(t *testing.T, doc *pxml.Tree, cfg core.Config, opts server.Options) (http.Handler, *core.Database) {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), catalog.Options{Config: cfg, CompactEvery: -1})
	if err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	t.Cleanup(func() { cat.Close() })
	db, err := cat.Default()
	if err != nil {
		t.Fatalf("default database: %v", err)
	}
	if err := db.Core().ReplaceTree(doc); err != nil {
		t.Fatalf("ReplaceTree: %v", err)
	}
	return server.NewCatalog(cat, opts).Handler(), db.Core()
}

func mustDecode(t *testing.T, src string) *pxml.Tree {
	t.Helper()
	tree, err := xmlcodec.DecodeString(src)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return tree
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, rawURL, contentType string, body io.Reader, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, rawURL, body)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, rawURL, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body %s", method, rawURL, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON %q: %v", data, err)
		}
	}
}

func integrateB(t *testing.T, ts *httptest.Server) server.IntegrateResponse {
	t.Helper()
	var resp server.IntegrateResponse
	doJSON(t, "POST", ts.URL+"/integrate", "application/xml", strings.NewReader(bookB), http.StatusOK, &resp)
	return resp
}

func TestIntegrateMerge(t *testing.T) {
	ts, db := newTestServer(t)
	resp := integrateB(t, ts)
	if resp.UndecidedPairs == 0 {
		t.Fatalf("integration should report undecided pairs: %+v", resp)
	}
	if resp.Worlds != "3" {
		t.Fatalf("worlds = %s, want 3 (Figure 2)", resp.Worlds)
	}
	if db.WorldCount().Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("database world count = %s", db.WorldCount())
	}
}

func TestIntegrateReplace(t *testing.T) {
	ts, db := newTestServer(t)
	integrateB(t, ts)
	var resp server.IntegrateResponse
	doJSON(t, "POST", ts.URL+"/integrate?mode=replace", "application/xml",
		strings.NewReader(bookA), http.StatusOK, &resp)
	if resp.Worlds != "1" {
		t.Fatalf("worlds after replace = %s, want 1", resp.Worlds)
	}
	if !db.IsCertain() {
		t.Fatalf("database should be certain after replace")
	}
}

func TestIntegrateErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/integrate", "application/xml",
		strings.NewReader(`broken<`), http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/integrate", "application/xml",
		strings.NewReader(`<catalog/>`), http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/integrate?mode=sideways", "application/xml",
		strings.NewReader(bookB), http.StatusBadRequest, nil)
}

// TestIntegrateDeepBody: a source nested deeper than the XML decoder
// accepts — a body of nothing but <a>, just under the default body limit,
// which used to overflow the goroutine stack and kill the process — is
// answered 422 like any malformed source, and the next request succeeds.
func TestIntegrateDeepBody(t *testing.T) {
	ts, _ := newTestServer(t)
	deep := strings.Repeat("<a>", server.DefaultMaxBodyBytes/3)
	doJSON(t, "POST", ts.URL+"/integrate", "application/xml",
		strings.NewReader(deep), http.StatusUnprocessableEntity, nil)
	if resp := integrateB(t, ts); resp.Worlds != "3" {
		t.Fatalf("worlds after the refused body = %s, want 3", resp.Worlds)
	}
}

// batchBody builds the JSON body of a /integrate/batch request.
func batchBody(t *testing.T, sources ...string) io.Reader {
	t.Helper()
	body, err := json.Marshal(server.BatchIntegrateRequest{Sources: sources})
	if err != nil {
		t.Fatalf("marshal batch: %v", err)
	}
	return strings.NewReader(string(body))
}

func TestIntegrateBatch(t *testing.T) {
	ts, db := newTestServer(t)
	const bookC = `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`
	var resp server.BatchIntegrateResponse
	doJSON(t, "POST", ts.URL+"/integrate/batch", "application/json",
		batchBody(t, bookB, bookC), http.StatusOK, &resp)
	if resp.Integrated != 2 || len(resp.Sources) != 2 {
		t.Fatalf("batch response = %+v, want 2 sources", resp)
	}
	if resp.Sources[0].UndecidedPairs == 0 {
		t.Fatalf("first source should report undecided pairs: %+v", resp.Sources[0])
	}
	if resp.Worlds != db.WorldCount().String() {
		t.Fatalf("response worlds %s != database worlds %s", resp.Worlds, db.WorldCount())
	}
	if got := db.IntegrationCount(); got != 2 {
		t.Fatalf("integration count = %d, want 2", got)
	}
}

func TestIntegrateBatchErrors(t *testing.T) {
	ts, db := newTestServer(t)
	before := db.Tree()
	// Empty source list.
	doJSON(t, "POST", ts.URL+"/integrate/batch", "application/json",
		batchBody(t), http.StatusBadRequest, nil)
	// Unknown fields are rejected.
	doJSON(t, "POST", ts.URL+"/integrate/batch", "application/json",
		strings.NewReader(`{"source": ["x"]}`), http.StatusBadRequest, nil)
	// A malformed source fails the whole batch atomically.
	doJSON(t, "POST", ts.URL+"/integrate/batch", "application/json",
		batchBody(t, bookB, `broken<`), http.StatusUnprocessableEntity, nil)
	// A root-tag mismatch mid-batch fails it atomically too.
	doJSON(t, "POST", ts.URL+"/integrate/batch", "application/json",
		batchBody(t, bookB, `<catalog/>`), http.StatusUnprocessableEntity, nil)
	if db.Tree() != before || db.IntegrationCount() != 0 {
		t.Fatalf("failed batches must leave the database untouched")
	}
}

func TestQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	var resp server.QueryResponse
	doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, &resp)
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %+v, want 2", resp.Answers)
	}
	if resp.Method == "" {
		t.Fatalf("missing evaluation method")
	}
	doJSON(t, "GET", ts.URL+"/query?top=1&q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, &resp)
	if len(resp.Answers) != 1 {
		t.Fatalf("top=1 answers = %+v", resp.Answers)
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "GET", ts.URL+"/query", "", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(`not a query`), "", nil, http.StatusBadRequest, nil)
	// A parse error is never cached: the same bad query answers 400 again.
	for i := 0; i < 2; i++ {
		doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(`//movie[`), "", nil, http.StatusBadRequest, nil)
	}
	doJSON(t, "GET", ts.URL+"/query?top=x&q="+url.QueryEscape(`//a`), "", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/query?seed=x&q="+url.QueryEscape(`//a`), "", nil, http.StatusBadRequest, nil)
}

// TestQuerySeedParameter checks the per-request sampler seed is accepted —
// including the previously unrequestable seed 0 — and does not disturb
// exact evaluation.
func TestQuerySeedParameter(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	for _, seed := range []string{"0", "1", "-3"} {
		var resp server.QueryResponse
		doJSON(t, "GET", ts.URL+"/query?seed="+seed+"&q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, &resp)
		if len(resp.Answers) != 2 {
			t.Fatalf("seed=%s: answers = %+v, want 2", seed, resp.Answers)
		}
	}
}

func TestFeedback(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	body, _ := json.Marshal(server.FeedbackRequest{Query: `//person/tel`, Value: "2222", Correct: boolPtr(false)})
	var resp server.FeedbackResponse
	doJSON(t, "POST", ts.URL+"/feedback", "application/json", strings.NewReader(string(body)), http.StatusOK, &resp)
	if resp.WorldsAfter != "1" {
		t.Fatalf("worlds after feedback = %s, want 1", resp.WorldsAfter)
	}
	if resp.Judgment != "incorrect" {
		t.Fatalf("judgment = %s", resp.Judgment)
	}
	// The rejected answer is gone.
	var qr server.QueryResponse
	doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, &qr)
	if len(qr.Answers) != 1 || qr.Answers[0].Value != "1111" {
		t.Fatalf("answers after feedback = %+v", qr.Answers)
	}
}

func TestFeedbackErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/feedback", "application/json",
		strings.NewReader(`{`), http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/feedback", "application/json",
		strings.NewReader(`{"query":"//a"}`), http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/feedback", "application/json",
		strings.NewReader(`{"query":"//a","value":"x","typo":true}`), http.StatusBadRequest, nil)
	// Omitting "correct" must not silently count as a judgment.
	doJSON(t, "POST", ts.URL+"/feedback", "application/json",
		strings.NewReader(`{"query":"//a","value":"x"}`), http.StatusBadRequest, nil)
}

// TestFeedbackSkipsAnchorsThatCannotYieldTheValue: a rejection enumerates
// only the anchors that can yield the rejected value. Here one movie has
// 2^8 local worlds, more than the feedback's LocalWorldLimit, but no
// director it could have is the rejected one, so the rejection of the
// other movie's director answers 200 and not 422.
func TestFeedbackSkipsAnchorsThatCannotYieldTheValue(t *testing.T) {
	leaf, one := pxml.NewLeaf, pxml.Certain
	heat := pxml.NewElem("movie", "", one(leaf("title", "Heat")), one(leaf("genre", "Crime")),
		pxml.NewProb(pxml.NewPoss(0.5, leaf("director", "Michael Mann")), pxml.NewPoss(0.5, leaf("director", "Mann, Michael"))))
	alien := []*pxml.Node{one(leaf("title", "Alien")), one(leaf("director", "Ridley Scott"))}
	for i := 0; i < 8; i++ {
		alien = append(alien, pxml.NewProb(pxml.NewPoss(0.5, leaf("genre", "Horror")), pxml.NewPoss(0.5, leaf("genre", "Sci-Fi"))))
	}
	tree := pxml.CertainTree(pxml.NewElem("catalog", "", one(heat), one(pxml.NewElem("movie", "", alien...))))
	ts, _ := serveDoc(t, tree, core.Config{Feedback: feedback.Options{LocalWorldLimit: 100}}, server.Options{})

	body, _ := json.Marshal(server.FeedbackRequest{Query: `//movie[genre]/director`, Value: "Mann, Michael", Correct: boolPtr(false)})
	var resp server.FeedbackResponse
	doJSON(t, "POST", ts.URL+"/feedback", "application/json", strings.NewReader(string(body)), http.StatusOK, &resp)
	if resp.PriorP != 0.5 || resp.WorldsBefore != "512" || resp.WorldsAfter != "256" {
		t.Fatalf("feedback = %+v, want prior 0.5 and 512 → 256 worlds", resp)
	}
	var qr server.QueryResponse
	doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(`//movie[title="Heat"]/director`), "", nil, http.StatusOK, &qr)
	if len(qr.Answers) != 1 || qr.Answers[0].Value != "Michael Mann" {
		t.Fatalf("answers after feedback = %+v", qr.Answers)
	}
}

// TestFeedbackDeepQuery: a /feedback body whose query nests 3 000 001
// levels deep — 6 MB, under the default body limit, and once enough to
// overflow the parser's stack and kill the process — is answered 422, a
// query one level past query.MaxNesting is answered 400 by GET /query, and
// the server still answers.
func TestFeedbackDeepQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	deep := `//a[` + strings.Repeat("(", 3_000_000) + "b" + strings.Repeat(")", 3_000_000) + "]"
	body, err := json.Marshal(server.FeedbackRequest{Query: deep, Value: "x", Correct: boolPtr(false)})
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts.URL+"/feedback", "application/json", strings.NewReader(string(body)), http.StatusUnprocessableEntity, nil)
	tooDeep := `//person[` + strings.Repeat("(", query.MaxNesting) + "tel" + strings.Repeat(")", query.MaxNesting) + "]/nm"
	doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(tooDeep), "", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/healthz", "", nil, http.StatusOK, nil)
}

func TestStats(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	q := ts.URL + "/query?q=" + url.QueryEscape(`//person/nm`)
	doJSON(t, "GET", q, "", nil, http.StatusOK, nil)
	doJSON(t, "GET", q, "", nil, http.StatusOK, nil)
	var resp server.StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", "", nil, http.StatusOK, &resp)
	if resp.Worlds != "3" || resp.Certain {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.Integrations != 1 {
		t.Fatalf("integrations = %d, want 1", resp.Integrations)
	}
	if resp.ResultCache.Hits < 1 {
		t.Fatalf("repeated query did not hit the result cache: %+v", resp.ResultCache)
	}
}

func TestWorlds(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	var resp server.WorldsResponse
	doJSON(t, "GET", ts.URL+"/worlds?max=2", "", nil, http.StatusOK, &resp)
	if resp.Total != "3" || resp.Shown != 2 || len(resp.List) != 2 {
		t.Fatalf("worlds = %+v", resp)
	}
	for _, w := range resp.List {
		if w.P <= 0 || len(w.Elements) == 0 {
			t.Fatalf("bad world %+v", w)
		}
	}
	doJSON(t, "GET", ts.URL+"/worlds?max=x", "", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/worlds?max=0", "", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/worlds?max=-3", "", nil, http.StatusBadRequest, nil)
}

func TestExport(t *testing.T) {
	ts, db := newTestServer(t)
	integrateB(t, ts)
	resp, err := http.Get(ts.URL + "/export")
	if err != nil {
		t.Fatalf("GET /export: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/xml" {
		t.Fatalf("content type = %s", ct)
	}
	back, err := xmlcodec.Decode(resp.Body)
	if err != nil {
		t.Fatalf("exported document does not decode: %v", err)
	}
	if back.WorldCount().Cmp(db.WorldCount()) != 0 {
		t.Fatalf("world count changed over export: %s vs %s", back.WorldCount(), db.WorldCount())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ts, db := newTestServer(t)
	integrateB(t, ts)
	var saved server.SnapshotResponse
	doJSON(t, "POST", ts.URL+"/save", "application/json",
		strings.NewReader(`{"name":"exp1","comment":"after B"}`), http.StatusOK, &saved)
	if saved.Worlds != "3" || saved.Name != "exp1" || !saved.HasSchema {
		t.Fatalf("save response = %+v", saved)
	}

	// Mutate past the snapshot, then restore it.
	body, _ := json.Marshal(server.FeedbackRequest{Query: `//person/tel`, Value: "2222", Correct: boolPtr(false)})
	doJSON(t, "POST", ts.URL+"/feedback", "application/json", strings.NewReader(string(body)), http.StatusOK, nil)
	if db.WorldCount().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("feedback did not condition the database")
	}
	var loaded server.SnapshotResponse
	doJSON(t, "POST", ts.URL+"/load", "application/json",
		strings.NewReader(`{"name":"exp1"}`), http.StatusOK, &loaded)
	if loaded.Worlds != "3" {
		t.Fatalf("load response = %+v", loaded)
	}
	if db.WorldCount().Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("database not restored: %s worlds", db.WorldCount())
	}
}

func TestSaveLoadErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/save", "application/json",
		strings.NewReader(`{"name":"../evil"}`), http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/load", "application/json",
		strings.NewReader(`{"name":"never-saved"}`), http.StatusNotFound, nil)
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp server.HealthResponse
	doJSON(t, "GET", ts.URL+"/healthz", "", nil, http.StatusOK, &resp)
	if resp.Status != "ok" {
		t.Fatalf("healthz = %+v", resp)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/integrate")
	if err != nil {
		t.Fatalf("GET /integrate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /integrate status = %d, want 405", resp.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	ts, _ := serveDoc(t, mustDecode(t, bookA), core.Config{}, server.Options{MaxBodyBytes: 64})
	big := `<addressbook>` + strings.Repeat(`<person><nm>X</nm></person>`, 100) + `</addressbook>`
	doJSON(t, "POST", ts.URL+"/integrate", "application/xml",
		strings.NewReader(big), http.StatusRequestEntityTooLarge, nil)
}

// TestConcurrentQueriesDuringIntegration is the acceptance scenario: the
// server keeps answering /query while /integrate and /feedback requests
// are in flight. Run under -race it also proves the locking discipline.
func TestConcurrentQueriesDuringIntegration(t *testing.T) {
	ts, _ := newTestServer(t)
	const readers = 8
	const queriesPerReader = 30

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)

	// Writer 1: a stream of integrations (alternating sources).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			src := bookB
			if i%2 == 1 {
				src = fmt.Sprintf(`<addressbook><person><nm>P%d</nm><tel>%d</tel></person></addressbook>`, i, 5000+i)
			}
			resp, err := http.Post(ts.URL+"/integrate", "application/xml", strings.NewReader(src))
			if err != nil {
				errs <- fmt.Errorf("integrate: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("integrate status %d", resp.StatusCode)
				return
			}
		}
	}()

	// Writer 2: feedback judgments (some will 422 when the value is
	// already gone — only transport errors are failures).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body, _ := json.Marshal(server.FeedbackRequest{Query: `//person/tel`, Value: "2222", Correct: boolPtr(false)})
			resp, err := http.Post(ts.URL+"/feedback", "application/json", strings.NewReader(string(body)))
			if err != nil {
				errs <- fmt.Errorf("feedback: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Readers: queries and stats must always succeed.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerReader; i++ {
				u := ts.URL + "/query?q=" + url.QueryEscape(`//person/nm`)
				if i%5 == 0 {
					u = ts.URL + "/stats"
				}
				resp, err := http.Get(u)
				if err != nil {
					errs <- fmt.Errorf("read: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("read status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
