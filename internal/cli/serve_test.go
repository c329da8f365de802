package cli

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeEndToEnd boots `imprecise serve` on an ephemeral port, drives
// the HTTP API (integrate, query, feedback, save), and shuts it down by
// closing the listener.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	lnCh := make(chan net.Listener, 1)
	old := serveListen
	serveListen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, "127.0.0.1:0")
		if err == nil {
			lnCh <- ln
		}
		return ln, err
	}
	defer func() { serveListen = old }()

	dtdPath := filepath.Join(dir, "p.dtd")
	writeTestFile(t, dtdPath, `
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>`)

	done := make(chan error, 1)
	go func() {
		var sb strings.Builder
		done <- Run([]string{
			"serve", "-quiet",
			"-root", "addressbook",
			"-dtd", dtdPath,
			"-snapshots", filepath.Join(dir, "snaps"),
		}, &sb)
	}()

	var ln net.Listener
	select {
	case ln = <-lnCh:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatalf("serve did not start listening")
	}
	base := "http://" + ln.Addr().String()

	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d; body %s", path, resp.StatusCode, want, data)
		}
		return data
	}
	post := func(path, contentType, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(base+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d; body %s", path, resp.StatusCode, want, data)
		}
		return data
	}

	get("/healthz", http.StatusOK)

	// Empty server: replace with source A, merge source B.
	post("/integrate?mode=replace", "application/xml",
		`<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`, http.StatusOK)
	data := post("/integrate", "application/xml",
		`<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`, http.StatusOK)
	var ir struct {
		Worlds string `json:"worlds"`
	}
	if err := json.Unmarshal(data, &ir); err != nil || ir.Worlds != "3" {
		t.Fatalf("integrate response %s (err %v)", data, err)
	}

	data = get("/query?explain=1&q="+url.QueryEscape(`//person/tel`), http.StatusOK)
	var qr struct {
		Answers []struct {
			Value string  `json:"value"`
			P     float64 `json:"p"`
		} `json:"answers"`
		Plan *struct {
			Method string `json:"method"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(data, &qr); err != nil || len(qr.Answers) != 2 || qr.Plan == nil || qr.Plan.Method != "exact" {
		t.Fatalf("query response %s (err %v), want 2 exact answers with a plan", data, err)
	}

	post("/feedback", "application/json",
		`{"query":"//person/tel","value":"2222","correct":false}`, http.StatusOK)
	post("/save", "application/json", `{"name":"s1"}`, http.StatusOK)

	ln.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned error after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("serve did not exit after listener close")
	}
}

func writeTestFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
