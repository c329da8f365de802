package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// TestQueryParameters: every /query parameter is read from one parse of the
// query string. A malformed value, a negative top, a sample count above
// query.MaxSamples and a query that does not parse included, answers 400
// with its own message, prefixed once, and workers= is ignored whatever its
// value.
func TestQueryParameters(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	tel := "q=" + url.QueryEscape(`//person/tel`)
	for _, tc := range []struct {
		query, wantErr string
	}{
		{tel + "&top=x", `query: bad top parameter "x"`},
		{tel + "&top=-1", `query: bad top parameter "-1"`},
		{tel + "&samples=x", `query: bad samples parameter "x"`},
		{tel + "&samples=-1", "query: invalid options: Samples must be >= 0 (0 means default 20000), got -1"},
		{tel + "&samples=2000000000", "query: invalid options: Samples must be <= 1000000, got 2000000000"},
		{tel + "&seed=x", `query: bad seed parameter "x"`},
		{tel + "&budget_ms=x", `query: bad budget_ms parameter "x"`},
		{tel + "&budget_ms=-1", `query: bad budget_ms parameter "-1"`},
		{tel + "&budget_ms=18446744073710", `query: bad budget_ms parameter "18446744073710"`},
		{tel + "&budget_ms=9223372036854", ""},
		{tel + "&explain=2", `query: bad explain parameter "2" (0 | 1)`},
		{tel + "&method=bogus", `query: invalid options: unknown method "bogus" (auto | exact | enumerate | sample)`},
		{"top=1", "query: missing q parameter"},
		{"q=" + url.QueryEscape(`//movie[`), `query: position 8: expected path, found ""`},
		{tel + "&workers=3", ""},
		{tel + "&workers=-1", ""},
		{tel + "&workers=x&top=1&explain=1", ""},
	} {
		if tc.wantErr != "" {
			var resp struct{ Error string }
			doJSON(t, "GET", ts.URL+"/dbs/default/query?"+tc.query, "", nil, http.StatusBadRequest, &resp)
			if resp.Error != tc.wantErr {
				t.Errorf("%s: error %q, want %q", tc.query, resp.Error, tc.wantErr)
			}
			continue
		}
		var resp server.QueryResponse
		doJSON(t, "GET", ts.URL+"/dbs/default/query?"+tc.query, "", nil, http.StatusOK, &resp)
		if len(resp.Answers) == 0 {
			t.Errorf("%s: no answers", tc.query)
		}
	}
}

// TestQueryClientDisconnect: a request whose context is already canceled
// (the client hung up) aborts with the 499 nginx convention and is counted
// in the /stats query section.
func TestQueryClientDisconnect(t *testing.T) {
	h, _ := defaultDBHandler(t, mustDecode(t, bookA), core.Config{Schema: personDTD}, server.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/dbs/default/query?q="+url.QueryEscape(`//person/tel`), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499; body %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/dbs/default/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad stats JSON %q: %v", rec.Body.String(), err)
	}
	if stats.Query.Canceled < 1 {
		t.Fatalf("stats.query = %+v, want canceled >= 1", stats.Query)
	}
	if stats.Query.Started < 1 {
		t.Fatalf("stats.query = %+v, want started >= 1", stats.Query)
	}
}

// TestStatsQuerySection: /stats reports the query-concurrency counters
// after a cold evaluation plus repeats (cache hits leave started growing).
func TestStatsQuerySection(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	for i := 0; i < 3; i++ {
		doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, nil)
	}
	var stats server.StatsResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/stats", "", nil, http.StatusOK, &stats)
	if stats.Query.Started < 3 {
		t.Fatalf("query.started = %d, want >= 3", stats.Query.Started)
	}
	if stats.Query.Active != 0 {
		t.Fatalf("query.active = %d, want 0", stats.Query.Active)
	}
	// The anchors a look-up enumerated show in its plan and add up in
	// /stats, once per evaluation that ran: a cache hit adds nothing.
	enumerated := stats.Query.AnchorsEnumerated
	if enumerated < 1 {
		t.Fatalf("query.anchors_enumerated = %d after a cold //person/tel, want >= 1", enumerated)
	}
	lookup := ts.URL + "/dbs/default/query?explain=1&q=" + url.QueryEscape(`//person[nm="John"]/tel`)
	for i := 0; i < 2; i++ {
		var resp server.QueryResponse
		doJSON(t, "GET", lookup, "", nil, http.StatusOK, &resp)
		if resp.Plan == nil || !strings.Contains(resp.Plan.Reason, "enumerated 3 of 3 anchors reached") {
			t.Fatalf("plan = %+v, want the reason to count the three <person> anchors", resp.Plan)
		}
	}
	doJSON(t, "GET", ts.URL+"/dbs/default/stats", "", nil, http.StatusOK, &stats)
	if got := stats.Query.AnchorsEnumerated - enumerated; got != 3 || stats.Query.AnchorsSkipped != 0 {
		t.Fatalf("query = %+v: the look-up ran once and enumerated 3 anchors, /stats added %d", stats.Query, got)
	}
}
