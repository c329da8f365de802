package server_test

import (
	"net/http"
	"net/url"
	"testing"

	"repro/internal/server"
)

// TestQueryMethodParameter drives the method= parameter end to end: the
// default is the planner's auto choice, explicit methods are honored, and
// every method returns the same answer set on the Figure-2 document.
func TestQueryMethodParameter(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	q := url.QueryEscape(`//person[nm="John"]/tel`)

	var auto server.QueryResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q, "", nil, http.StatusOK, &auto)
	if auto.Method == "" || auto.Method == "auto" {
		t.Fatalf("auto query reports method %q, want the resolved strategy", auto.Method)
	}

	for _, m := range []string{"auto", "exact", "enumerate", "sample"} {
		var resp server.QueryResponse
		doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q+"&method="+m, "", nil, http.StatusOK, &resp)
		if len(resp.Answers) != len(auto.Answers) {
			t.Fatalf("method %s: %d answers, auto had %d", m, len(resp.Answers), len(auto.Answers))
		}
		if m != "auto" && resp.Method != m {
			t.Fatalf("method %s: response says %q", m, resp.Method)
		}
	}
}

// TestQueryExplainParameter checks explain=1 attaches the evaluation plan
// and that the plan agrees with the executed method.
func TestQueryExplainParameter(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	q := url.QueryEscape(`//person[nm="John"]/tel`)

	var plain server.QueryResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q, "", nil, http.StatusOK, &plain)
	if plain.Plan != nil {
		t.Fatalf("plan attached without explain=1")
	}

	var explained server.QueryResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q+"&explain=1", "", nil, http.StatusOK, &explained)
	if explained.Plan == nil {
		t.Fatal("explain=1 returned no plan")
	}
	if string(explained.Plan.Method) != explained.Method {
		t.Fatalf("plan method %q != response method %q", explained.Plan.Method, explained.Method)
	}
	if explained.Plan.Reason == "" || explained.Plan.EstimatedWorlds == "" {
		t.Fatalf("plan not explainable: %+v", explained.Plan)
	}

	// The second identical query must be served from the result cache.
	var cached server.QueryResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q+"&explain=1", "", nil, http.StatusOK, &cached)
	if cached.Plan == nil || !cached.Plan.CacheHit {
		t.Fatalf("repeat query not served from the result cache: %+v", cached.Plan)
	}
}

// TestQueryParameterValidation pins the 400 contract for the new
// parameters: negative samples, unknown methods, bad explain values.
func TestQueryParameterValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	q := url.QueryEscape(`//person/nm`)
	for _, bad := range []string{
		"&samples=-5",
		"&samples=abc",
		"&method=fuzzy",
		"&explain=maybe",
	} {
		var apiErr struct {
			Error string `json:"error"`
		}
		doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q+bad, "", nil, http.StatusBadRequest, &apiErr)
		if apiErr.Error == "" {
			t.Fatalf("parameter %q: empty error body", bad)
		}
	}
}

// TestStatsIndexAndResultCache checks /stats surfaces index build work
// and result-cache hit rates.
func TestStatsIndexAndResultCache(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	q := url.QueryEscape(`//person[nm="John"]/tel`)
	var qr server.QueryResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q, "", nil, http.StatusOK, &qr)
	doJSON(t, "GET", ts.URL+"/dbs/default/query?q="+q, "", nil, http.StatusOK, &qr)

	var st server.StatsResponse
	doJSON(t, "GET", ts.URL+"/dbs/default/stats", "", nil, http.StatusOK, &st)
	// Open built one index, the integrate swap another.
	if st.Index.Builds < 2 {
		t.Fatalf("index builds = %d, want >= 2", st.Index.Builds)
	}
	if st.Index.Tags == 0 || st.Index.Elements == 0 {
		t.Fatalf("index stats empty: %+v", st.Index)
	}
	if st.ResultCache.Hits < 1 || st.ResultCache.Misses < 1 {
		t.Fatalf("result cache counters = %+v, want at least one hit and one miss", st.ResultCache)
	}
	if st.ResultCache.Capacity == 0 {
		t.Fatalf("result cache capacity missing: %+v", st.ResultCache)
	}
}
