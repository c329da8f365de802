package replica_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/xmlcodec"
)

const (
	abA = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
	abB = `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`
	abC = `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`
)

func mustDecode(t testing.TB, src string) *pxml.Tree {
	t.Helper()
	tree, err := xmlcodec.DecodeString(src)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// fastOptions tunes the replica loops for test latency.
func fastOptions(primary string) replica.Options {
	return replica.Options{
		Primary:         primary,
		Catalog:         catalog.Options{RootTag: "addressbook"},
		PollWait:        200 * time.Millisecond,
		MembershipEvery: 25 * time.Millisecond,
		MinBackoff:      10 * time.Millisecond,
		MaxBackoff:      100 * time.Millisecond,
	}
}

// startPrimary boots a catalog-mode HTTP server over a fresh data dir.
func startPrimary(t *testing.T) (*catalog.Catalog, *httptest.Server) {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), catalog.Options{RootTag: "addressbook"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewCatalog(cat, server.Options{}).Handler())
	t.Cleanup(func() { ts.Close(); cat.Close() })
	return cat, ts
}

func waitCaughtUp(t *testing.T, rep *replica.Replica) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rep.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
}

func assertConverged(t *testing.T, primary, follower *core.Database) {
	t.Helper()
	pt, ft := primary.Tree(), follower.Tree()
	if !pxml.Equal(pt.Root(), ft.Root()) {
		t.Fatal("follower tree is not pxml.Equal to the primary's")
	}
	if pt.WorldCount().Cmp(ft.WorldCount()) != 0 {
		t.Fatalf("world counts differ: primary %s, follower %s", pt.WorldCount(), ft.WorldCount())
	}
	// JSON form: time.Time's monotonic reading (present on the primary,
	// absent after the op's wire round trip) must not count as a diff.
	pfb, _ := json.Marshal(primary.FeedbackHistory())
	ffb, _ := json.Marshal(follower.FeedbackHistory())
	if string(pfb) != string(ffb) {
		t.Fatalf("feedback histories differ:\nprimary  %s\nfollower %s", pfb, ffb)
	}
	if primary.IntegrationCount() != follower.IntegrationCount() {
		t.Fatalf("integration counts differ: primary %d, follower %d", primary.IntegrationCount(), follower.IntegrationCount())
	}
}

// TestReplicationEndToEnd is the acceptance scenario over real HTTP: a
// follower started empty against a live primary converges (snapshot
// bootstrap + tail), keeps converging while the primary takes writes,
// serves reads from its own server while rejecting mutations with 403 +
// primary address, and resumes from its durable lastApplied after a
// restart without re-bootstrapping.
func TestReplicationEndToEnd(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}

	followerDir := t.TempDir()
	rep, err := replica.Open(followerDir, fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep)
	fdb, err := rep.Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb.Core(), fdb.Core())

	// The primary keeps taking writes; the replica keeps serving reads
	// from its current state and converges on the new position.
	if _, err := pdb.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().Feedback(`//person[nm="John"]/tel`, "2222", false); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(server.NewReplica(rep, server.Options{}).Handler())
	defer rts.Close()
	// Reads are served locally (whatever position the follower is at).
	resp, err := http.Get(rts.URL + "/dbs/x/query?q=" + "%2F%2Fperson%2Ftel")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica query status %d", resp.StatusCode)
	}
	// Mutations are 403 with the primary's address.
	resp, err = http.Post(rts.URL+"/dbs/x/integrate", "application/xml", strings.NewReader(abC))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica integrate status %d, want 403 (body %s)", resp.StatusCode, body)
	}
	var ro struct {
		Error   string `json:"error"`
		Primary string `json:"primary"`
	}
	if err := json.Unmarshal(body, &ro); err != nil || ro.Primary != ts.URL {
		t.Fatalf("403 body %s (err %v), want primary %q", body, err, ts.URL)
	}

	waitCaughtUp(t, rep)
	assertConverged(t, pdb.Core(), fdb.Core())

	// Replica status reflects the convergence.
	st := rep.Status()
	if !st.Connected || len(st.Databases) != 1 || !st.Databases[0].CaughtUp {
		t.Fatalf("replica status %+v", st)
	}
	snapshotsBefore := st.Databases[0].SnapshotsInstalled
	if snapshotsBefore < 1 {
		t.Fatalf("expected at least one bootstrap snapshot, got %d", snapshotsBefore)
	}

	// Kill the replica, keep writing on the primary, restart: the
	// follower must resume tailing from its durable lastApplied without
	// another snapshot bootstrap.
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abC); err != nil {
		t.Fatal(err)
	}
	rep2, err := replica.Open(followerDir, fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	waitCaughtUp(t, rep2)
	fdb2, err := rep2.Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb.Core(), fdb2.Core())
	st = rep2.Status()
	if n := st.Databases[0].SnapshotsInstalled; n != 0 {
		t.Fatalf("restarted replica installed %d snapshot(s); want 0 (tail resume from durable lastApplied)", n)
	}
	if st.Databases[0].OpsApplied == 0 {
		t.Fatal("restarted replica applied no ops")
	}
}

// TestReplicationMembership: databases created and dropped on the primary
// appear and disappear on the follower.
func TestReplicationMembership(t *testing.T) {
	cat, ts := startPrimary(t)
	if _, err := cat.Create("a"); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Open(t.TempDir(), fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitCaughtUp(t, rep)
	if _, err := rep.Catalog().Get("a"); err != nil {
		t.Fatalf("database a not replicated: %v", err)
	}

	if _, err := cat.Create("b"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Drop("a"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, errA := rep.Catalog().Get("a")
		_, errB := rep.Catalog().Get("b")
		if errA != nil && errB == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership did not converge: a err %v, b err %v", errA, errB)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationStatusListsFailingBootstrap: a database whose bootstrap
// keeps failing — its snapshot stream is cut short — is listed in the
// follower's status, at position 0 with the failure as its last error,
// though it never comes to exist locally.
func TestReplicationStatusListsFailingBootstrap(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/dbs/x/snapshot" {
			proxy.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		proxy.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.Write(body[:len(body)/2])
	}))
	defer front.Close()

	rep, err := replica.Open(t.TempDir(), fastOptions(front.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rep.Status()
		if len(st.Databases) == 1 && st.Databases[0].LastError != "" {
			d := st.Databases[0]
			if d.Name != "x" || d.LastApplied != 0 || d.SnapshotsInstalled != 0 {
				t.Fatalf("status row %+v, want x at 0 with no snapshot", d)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never listed the failing database: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := rep.Catalog().Get("x"); err == nil {
		t.Fatal("a cut-short snapshot was installed")
	}
}

// TestReplicationDivergenceResync: a follower that forked from the
// primary's history (a forged op at the next sequence) must detect the
// divergence via the digest check once positions align and resynchronize
// from a snapshot automatically.
func TestReplicationDivergenceResync(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Open(t.TempDir(), fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitCaughtUp(t, rep)
	fdb, err := rep.Catalog().Get("x")
	if err != nil {
		t.Fatal(err)
	}

	// Fork the follower: the primary's next op (seq 2) is an integrate of
	// abB, but the follower receives a forged replace instead. Positions
	// then align while the trees differ — exactly what digest comparison
	// must catch.
	forged := core.Op{Kind: core.OpReplace, TreeValue: mustDecode(t, abC)}
	if _, err := fdb.ApplyReplicated(catalog.WALRecord{Seq: 2, Op: forged}); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		fdb, err := rep.Catalog().Get("x")
		if err == nil && fdb.LastSeq() == pdb.LastSeq() &&
			pxml.Equal(fdb.Core().Tree().Root(), pdb.Core().Tree().Root()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("diverged follower did not resynchronize")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := rep.Status()
	if st.Databases[0].Divergences == 0 && st.Databases[0].SnapshotsInstalled < 2 {
		t.Fatalf("expected a recorded divergence or resync, got %+v", st.Databases[0])
	}
}

// TestReplicaOfReplicaRejected: pointing a follower at another replica is
// refused, keeping replication trees rooted at primaries.
func TestReplicaOfReplicaRejected(t *testing.T) {
	_, ts := startPrimary(t)
	rep, err := replica.Open(t.TempDir(), fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rts := httptest.NewServer(server.NewReplica(rep, server.Options{}).Handler())
	defer rts.Close()

	rep2, err := replica.Open(t.TempDir(), fastOptions(rts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rep2.Status()
		if !st.Connected && strings.Contains(st.LastError, "itself a replica") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica-of-replica was not rejected: %+v", rep2.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicaOfStandaloneKeepsData: pointing a follower (with existing
// replicated state) at a non-catalog server must fail the sync round —
// NOT treat the empty database set as authoritative and drop every
// local database.
func TestReplicaOfStandaloneKeepsData(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := replica.Open(dir, fastOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep)
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// A server at the primary's address that is no catalog primary: older
	// builds served a bare document this way, and answered /replication
	// with the "standalone" role and no databases.
	sts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replication" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"role":"standalone","epoch":0,"databases":[]}`)
	}))
	defer sts.Close()
	rep2, err := replica.Open(dir, fastOptions(sts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rep2.Status()
		if !st.Connected && strings.Contains(st.LastError, `"standalone"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standalone primary was not rejected: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The replicated database survived the misconfiguration.
	if _, err := rep2.Catalog().Get("x"); err != nil {
		t.Fatalf("local database dropped after syncing against a standalone server: %v", err)
	}
}

// TestReplicationTableDroppedOnDesync: a follower names the string table
// it holds only while the page stream it was built from continues. Here
// the primary answers one such request with a string-table frame based
// where the follower's table does not end — a desynchronised stream. The
// follower must drop its table (the next request carries no tab=, and is
// served a page that stands alone), must not take the failure for
// divergence (no second snapshot), and once a page has decoded again,
// name its table again.
func TestReplicationTableDroppedOnDesync(t *testing.T) {
	cat, ts := startPrimary(t)
	pdb, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var tabs []string // tab= of every /wal request from the bad answer on
	front := frontPrimary(t, ts.URL, func(w http.ResponseWriter, q url.Values) bool {
		mu.Lock()
		defer mu.Unlock()
		if len(tabs) > 0 || !q.Has("tab") {
			if len(tabs) > 0 {
				tabs = append(tabs, q.Get("tab"))
			}
			return false
		}
		tabs = append(tabs, q.Get("tab"))
		since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
		var hdr []byte
		hdr = codec.AppendString(hdr, "x")
		hdr = codec.AppendUvarint(hdr, since)
		hdr = codec.AppendUvarint(hdr, since)
		hdr = codec.AppendString(hdr, "")
		hdr = codec.AppendUvarint(hdr, 0)
		w.Header().Set("Content-Type", replica.ContentType)
		fw := codec.NewFrameWriter(w)
		fw.Write(codec.KindPageHeader, 1, hdr)
		fw.Write(codec.KindStrTab, codec.StrTabVersion, codec.AppendStrTabPayload(nil, 7777, []string{"stray"}))
		fw.Write(codec.KindEnd, 1, codec.AppendUvarint(nil, 0))
		return true
	})
	rep, err := replica.Open(t.TempDir(), fastOptions(front.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	fdb := func() *core.Database {
		waitCaughtUp(t, rep)
		db, err := rep.Catalog().Get("x")
		if err != nil {
			t.Fatal(err)
		}
		return db.Core()
	}
	fdb() // bootstrapped: what follows arrives as pages
	// The page carrying abB leaves the follower a table; its next request
	// names it and gets the bad answer; abC then travels on a page asked
	// for without one; and the request after that names a table again.
	for _, src := range []string{abB, abC, abA} {
		if _, err := pdb.Core().IntegrateXMLString(src); err != nil {
			t.Fatal(err)
		}
		assertConverged(t, pdb.Core(), fdb())
		deadline := time.Now().Add(10 * time.Second)
		for n := 0; src == abB && n == 0; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			n = len(tabs)
			mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatal("the follower never named its table")
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		seen := slices.Clone(tabs)
		mu.Unlock()
		if len(seen) >= 2 && seen[1] != "" {
			t.Fatalf("request after the desynchronised page still carried tab=%s", seen[1])
		}
		if n := len(seen); n > 2 && seen[n-1] != "" {
			if seen[n-1] == seen[0] {
				t.Fatalf("follower names table %s again, two records later", seen[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the follower never named a table again: %q", seen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := rep.Status().Databases[0]; d.SnapshotsInstalled != 1 || d.Divergences != 0 {
		t.Fatalf("%d snapshot(s), %d divergence(s); a dropped table is neither", d.SnapshotsInstalled, d.Divergences)
	}
}
