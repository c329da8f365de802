package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/pxml"
	"repro/internal/replica"
)

// fastReplicaOptions tunes the follower loops for test latency.
func fastReplicaOptions(primary string) replica.Options {
	return replica.Options{
		Primary:         primary,
		Catalog:         catalog.Options{RootTag: "addressbook"},
		PollWait:        100 * time.Millisecond,
		MembershipEvery: 20 * time.Millisecond,
		MinBackoff:      10 * time.Millisecond,
		MaxBackoff:      100 * time.Millisecond,
	}
}

// postJSON posts a JSON (or XML) body and returns status plus body.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, data
}

// failoverOps are the committed operations of the fault-injection run:
// distinguishable integrations plus a feedback judgment, so the replayed
// history exercises more than one op kind.
var failoverOps = []string{abookA, abookB, abookC,
	`<addressbook><person><nm>Rita</nm><tel>4444</tel></person></addressbook>`,
}

// TestFailoverPromoteAtEveryOpBoundary is the fault-injection property
// test: for EVERY op boundary k, the primary commits ops 1..k, the
// follower converges, the primary is killed, and the follower is
// promoted. The promoted node must hold exactly the committed prefix —
// no op lost, none doubled: same sequence number, a pxml.Equal tree,
// identical world count, and identical history lengths. It must then
// accept the remaining ops as the new primary, stamped with the raised
// epoch.
func TestFailoverPromoteAtEveryOpBoundary(t *testing.T) {
	for k := 0; k <= len(failoverOps); k++ {
		k := k
		t.Run(fmt.Sprintf("killed-after-%d-ops", k), func(t *testing.T) {
			t.Parallel()
			cat, ts := newPrimaryServer(t, catalog.Options{})
			pdb, err := cat.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, err := pdb.Core().IntegrateXMLString(failoverOps[i]); err != nil {
					t.Fatal(err)
				}
			}
			wantTree := pdb.Core().Tree()
			wantIntegrations := pdb.Core().IntegrationCount()
			wantFeedback := len(pdb.Core().FeedbackHistory())

			rep, err := replica.Open(t.TempDir(), fastReplicaOptions(ts.URL))
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := rep.WaitCaughtUp(ctx); err != nil {
				t.Fatal(err)
			}
			srv := NewReplica(rep, Options{})
			defer srv.Close() // stop the post-promotion fencer goroutine
			rts := httptest.NewServer(srv.Handler())
			defer rts.Close()

			// Kill the primary: its listener dies mid-cluster, no clean
			// shutdown, no final handoff.
			ts.Close()

			status, body := postJSON(t, rts.URL+"/promote", `{}`)
			if status != http.StatusOK {
				t.Fatalf("promote: status %d: %s", status, body)
			}
			var pr PromoteResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatal(err)
			}
			if pr.Role != "primary" || pr.Epoch != 1 {
				t.Fatalf("promote response = %+v, want role primary epoch 1", pr)
			}

			fdb, err := rep.Catalog().Get("x")
			if err != nil {
				t.Fatal(err)
			}
			// No committed op lost, none doubled.
			if got := fdb.LastSeq(); got != uint64(k) {
				t.Fatalf("promoted node at seq %d, want exactly %d", got, k)
			}
			ftree := fdb.Core().Tree()
			if !pxml.Equal(ftree.Root(), wantTree.Root()) {
				t.Fatal("promoted tree is not pxml.Equal to the killed primary's")
			}
			if ftree.WorldCount().Cmp(wantTree.WorldCount()) != 0 {
				t.Fatalf("world counts differ: primary %s, promoted %s", wantTree.WorldCount(), ftree.WorldCount())
			}
			if got := fdb.Core().IntegrationCount(); got != wantIntegrations {
				t.Fatalf("integration count %d, want %d", got, wantIntegrations)
			}
			if got := len(fdb.Core().FeedbackHistory()); got != wantFeedback {
				t.Fatalf("feedback history: %d entries, want %d", got, wantFeedback)
			}
			if fdb.Epoch() != 1 {
				t.Fatalf("promoted db at epoch %d, want 1", fdb.Epoch())
			}

			// The promoted node is a real primary: the remaining ops land
			// over HTTP and are committed under the new epoch.
			for i := k; i < len(failoverOps); i++ {
				status, body := postJSON(t, rts.URL+"/dbs/x/integrate", failoverOps[i])
				if status != http.StatusOK {
					t.Fatalf("integrate op %d on promoted node: status %d: %s", i+1, status, body)
				}
			}
			if got := fdb.LastSeq(); got != uint64(len(failoverOps)) {
				t.Fatalf("after continuing: seq %d, want %d", got, len(failoverOps))
			}
			if k < len(failoverOps) {
				recs, err := fdb.OpsSince(uint64(k), len(failoverOps))
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					if rec.Epoch != 1 {
						t.Fatalf("post-promotion record %d at epoch %d, want 1", rec.Seq, rec.Epoch)
					}
				}
			}
		})
	}
}

// swapHandler is an http.Handler whose target can be replaced at
// runtime, giving a "node" a stable URL across crash and restart.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

var downHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "node down", http.StatusBadGateway)
})

// TestSplitBrainDeposedPrimaryFenced is the split-brain regression: the
// old primary crashes, a replica is promoted, then the old primary
// restarts at its old address still believing it leads. Its stale ships
// must be rejected with ErrStaleEpoch, the promotion fence must demote
// it, and a client writing to it must be redirected (403 + primary) to
// the new primary.
func TestSplitBrainDeposedPrimaryFenced(t *testing.T) {
	dirA := t.TempDir()
	catA, err := catalog.Open(dirA, catalog.Options{RootTag: "addressbook"})
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{h: NewCatalog(catA, Options{}).Handler()}
	tsA := httptest.NewServer(sw)
	defer tsA.Close()
	dbA, err := catA.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dbA.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}

	rep, err := replica.Open(t.TempDir(), fastReplicaOptions(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rep.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	srv := NewReplica(rep, Options{})
	defer srv.Close() // stop the fencer goroutine
	rts := httptest.NewServer(srv.Handler())
	defer rts.Close()

	// A crashes (stable URL now refuses work) and B is promoted. The
	// fence can't be delivered yet — A is down — so it keeps retrying in
	// the background.
	sw.swap(downHandler)
	if err := catA.Close(); err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, rts.URL+"/promote", fmt.Sprintf(`{"advertise_url":%q}`, rts.URL))
	if status != http.StatusOK {
		t.Fatalf("promote: status %d: %s", status, body)
	}
	// Promote is idempotent: a retry reports the standing epoch.
	status, body = postJSON(t, rts.URL+"/promote", `{}`)
	var again PromoteResponse
	if status != http.StatusOK || json.Unmarshal(body, &again) != nil || again.Epoch != 1 {
		t.Fatalf("re-promote: status %d body %s, want epoch 1", status, body)
	}
	// The new primary commits past the old one.
	if status, body := postJSON(t, rts.URL+"/dbs/x/integrate", abookB); status != http.StatusOK {
		t.Fatalf("write on promoted node: status %d: %s", status, body)
	}

	// A restarts from its own disk at the same address, recovering as a
	// primary at the old epoch — classic split brain. It even accepts a
	// divergent local write.
	catA2, err := catalog.Open(dirA, catalog.Options{RootTag: "addressbook"})
	if err != nil {
		t.Fatal(err)
	}
	defer catA2.Close()
	dbA2, err := catA2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	// Two divergent local writes: A moves to seq 3 while B sits at seq 2,
	// so A's tail holds a sequence number B has never seen.
	if _, err := dbA2.Core().IntegrateXMLString(abookC); err != nil {
		t.Fatal(err)
	}
	if _, err := dbA2.Core().IntegrateXMLString(abookA); err != nil {
		t.Fatal(err)
	}
	sw.swap(NewCatalog(catA2, Options{}).Handler())

	// The deposed primary's ship is live wire data from its /wal — and
	// the promoted node rejects it with ErrStaleEpoch: a fresh sequence
	// number claimed under a stale term.
	page := getWire(t, tsA.URL+"/dbs/x/wal?since=2", http.StatusOK, replica.DecodeWALPage)
	if page.Epoch != 0 || len(page.Records) != 1 {
		t.Fatalf("stale primary page = epoch %d, %d record(s); want epoch 0, 1 record", page.Epoch, len(page.Records))
	}
	fdb, err := rep.Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fdb.ApplyReplicated(page.Records[0]); !errors.Is(err, catalog.ErrStaleEpoch) {
		t.Fatalf("stale ship: err = %v, want ErrStaleEpoch", err)
	}

	// The promotion fence finds the restarted node and demotes it.
	deadline := time.Now().Add(30 * time.Second)
	var ps replica.PrimaryStatus
	for {
		getJSON(t, tsA.URL+"/replication", http.StatusOK, &ps)
		if ps.Role == "demoted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old primary never demoted: %+v", ps)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ps.Primary != rts.URL {
		t.Fatalf("demoted primary points at %q, want %q", ps.Primary, rts.URL)
	}
	if ps.Epoch != 0 {
		t.Fatalf("demoted primary at epoch %d, want 0 (kept, so its records stay detectably stale)", ps.Epoch)
	}

	// A client still writing to the old address is turned away with the
	// new primary's location — and following it succeeds.
	resp, err := http.Post(tsA.URL+"/dbs/x/integrate", "application/xml", bytes.NewReader([]byte(abookC)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("write to demoted primary: status %d, want 403; body %s", resp.StatusCode, raw)
	}
	var redirect struct {
		Primary string `json:"primary"`
	}
	if err := json.Unmarshal(raw, &redirect); err != nil || redirect.Primary == "" {
		t.Fatalf("403 body carries no primary: %s", raw)
	}
	if status, body := postJSON(t, redirect.Primary+"/dbs/x/integrate", abookC); status != http.StatusOK {
		t.Fatalf("redirected write: status %d: %s", status, body)
	}
	if got := fdb.LastSeq(); got != 3 {
		t.Fatalf("new primary at seq %d, want 3", got)
	}

	// Proof the fence held: everything the promoted node committed past
	// the shared prefix is its own (epoch 1); A's divergent op never
	// leaked in.
	recs, err := fdb.OpsSince(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Epoch != 1 {
			t.Fatalf("post-promotion record %d at epoch %d, want 1", rec.Seq, rec.Epoch)
		}
	}
}
