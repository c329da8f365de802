package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// client is one closed-loop caller: it holds one connection and sends its
// next request only after the previous reply arrived.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

// do sends one request and reads the whole reply. The latency runs from
// just before the request is written to the last byte of the body.
func (c *client) do(method, url string, body []byte) (status int, reply []byte, ms float64, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// call is do for requests whose failure ends the run (set-up, stats): any
// status other than 2xx is an error, and the reply is decoded into out
// when out is not nil.
func (c *client) call(method, url string, body []byte, out any) error {
	status, reply, _, err := c.do(method, url, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, status, firstLine(reply))
	}
	if out != nil {
		if err := json.Unmarshal(reply, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200]
	}
	return strings.ReplaceAll(s, "\n", " ")
}

func queryURL(base, db, q string) string {
	return base + "/dbs/" + db + "/query?q=" + url.QueryEscape(q)
}

// The reply shapes the harness reads. They are declared here and not
// imported from internal/server so that a field the server drops shows as
// a failed check, not as a compile error in the benchmark.

type answer struct {
	Value string  `json:"value"`
	P     float64 `json:"p"`
}

type queryReply struct {
	Query   string   `json:"query"`
	Method  string   `json:"method"`
	Answers []answer `json:"answers"`
}

type integrateReply struct {
	OracleCalls         int    `json:"oracle_calls"`
	UndecidedPairs      int    `json:"undecided_pairs"`
	MatchingsEnumerated int    `json:"matchings_enumerated"`
	MatchingsPruned     int    `json:"matchings_pruned"`
	TruncatedComponents int    `json:"truncated_components"`
	SplicedChildren     int    `json:"spliced_children"`
	LogicalNodes        int64  `json:"logical_nodes"`
	Worlds              string `json:"worlds"`
	ChoicePoints        int    `json:"choice_points"`
}

type feedbackReply struct {
	WorldsBefore string `json:"worlds_before"`
	WorldsAfter  string `json:"worlds_after"`
}

type cacheCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

type statsReply struct {
	LogicalNodes  int64         `json:"logical_nodes"`
	Worlds        string        `json:"worlds"`
	ChoicePoints  int           `json:"choice_points"`
	Integrations  int           `json:"integrations"`
	FeedbackCount int           `json:"feedback_events"`
	QueryCache    cacheCounters `json:"query_cache"`
	ResultCache   cacheCounters `json:"result_cache"`
	Query         struct {
		PooledTasks int64 `json:"pooled_tasks"`
		InlineTasks int64 `json:"inline_tasks"`
	} `json:"query"`
	Memo struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"integrate_memo"`
	WAL struct {
		LastSeq       uint64 `json:"last_seq"`
		TailOps       uint64 `json:"tail_ops"`
		Appends       int64  `json:"appends"`
		AppendedBytes int64  `json:"appended_bytes"`
		Compactions   int64  `json:"compactions"`
		RecoveredOps  int64  `json:"recovered_ops"`
		StrTabEntries int    `json:"strtab_entries"`
	} `json:"wal"`
	Store struct {
		MMapLoads int64 `json:"mmap_loads"`
	} `json:"store"`
	Wire struct {
		PayloadBytes int64 `json:"payload_bytes"`
		WireBytes    int64 `json:"wire_bytes"`
	} `json:"wire"`
}

func (c *client) stats(base, db string) (statsReply, error) {
	var st statsReply
	err := c.call("GET", base+"/dbs/"+db+"/stats", nil, &st)
	return st, err
}

// healthReply is GET /healthz?verbose=1: the cheap way to read a node's
// applied sequence per database (no tree walk, unlike /stats).
type healthReply struct {
	Databases []struct {
		Name       string `json:"name"`
		AppliedSeq uint64 `json:"applied_seq"`
		PrimarySeq uint64 `json:"primary_seq"` // replicas only
	} `json:"databases"`
}

type replicationReply struct {
	Databases []struct {
		Name               string `json:"name"`
		Divergences        int64  `json:"divergences"`
		SnapshotsInstalled int64  `json:"snapshots_installed"`
	} `json:"databases"`
}
