package shell_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/shell"
	"repro/internal/xmlcodec"
)

// TestShellCatalogLifecycle drives the durable-catalog commands: attach,
// create via use, journaled mutations, switch databases, re-attach the
// same directory and find everything recovered.
func TestShellCatalogLifecycle(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	sh := shell.New(&out)
	script := []string{
		`dtdinline <!ELEMENT addressbook (person*)> <!ELEMENT person (nm, tel?)> <!ELEMENT nm (#PCDATA)> <!ELEMENT tel (#PCDATA)>`,
		`data ` + dir,
		`use movies`,
		`loadxml <addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`,
		`integratexml <addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`,
		`query //person[nm="John"]/tel`,
		`feedback incorrect 2222`,
		`use books`,
		`loadxml <addressbook><person><nm>Ann</nm></person></addressbook>`,
		`dbs`,
		`stats`,
		// Re-attach: closes the catalog, reopens and recovers it.
		`data ` + dir,
		`use movies`,
		`query //person[nm="John"]/tel`,
	}
	for _, line := range script {
		if err := sh.Execute(line); err != nil {
			t.Fatalf("execute %q: %v\n%s", line, err, out.String())
		}
	}
	got := out.String()
	for _, want := range []string{
		"created database movies",
		"feedback applied: worlds 3 -> 1",
		"created database books",
		"movies", "books", // dbs listing
		"durability: db books",
		"using movies: ", // after re-attach
		"1 integrations, 1 feedback",
		"100.0%  1111", // the conditioned answer survived the restart
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	tail := got[strings.LastIndex(got, "using movies"):]
	if strings.Contains(tail, "2222") {
		t.Fatalf("rejected answer resurrected after recovery:\n%s", tail)
	}
}

// TestShellFailedAttachKeepsSession pins that `data` on an unopenable
// directory (here: locked by another catalog) leaves the current
// attachment fully usable.
func TestShellFailedAttachKeepsSession(t *testing.T) {
	mine, locked := t.TempDir(), t.TempDir()
	blocker, err := catalog.Open(locked, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()

	var out strings.Builder
	sh := shell.New(&out)
	for _, line := range []string{
		`data ` + mine,
		`use movies`,
		`loadxml <addressbook><person><nm>Ann</nm></person></addressbook>`,
	} {
		if err := sh.Execute(line); err != nil {
			t.Fatalf("execute %q: %v", line, err)
		}
	}
	if err := sh.Execute(`data ` + locked); err == nil {
		t.Fatalf("attaching a locked directory should fail")
	}
	// The old session survived: still attached, still journaled.
	if err := sh.Execute(`stats`); err != nil {
		t.Fatalf("stats after failed attach: %v", err)
	}
	if !strings.Contains(out.String(), "durability: db movies") {
		t.Fatalf("session lost after failed attach:\n%s", out.String())
	}
}

// TestShellCatalogErrors pins the guidance errors.
func TestShellCatalogErrors(t *testing.T) {
	var out strings.Builder
	sh := shell.New(&out)
	if err := sh.Execute("dbs"); err == nil || !strings.Contains(err.Error(), "no catalog attached") {
		t.Fatalf("dbs without catalog: %v", err)
	}
	if err := sh.Execute("use x"); err == nil || !strings.Contains(err.Error(), "no catalog attached") {
		t.Fatalf("use without catalog: %v", err)
	}
	if err := sh.Execute("data"); err == nil {
		t.Fatalf("data without dir should fail")
	}
	if err := sh.Execute("data " + t.TempDir()); err != nil {
		t.Fatalf("data: %v", err)
	}
	if err := sh.Execute("use"); err == nil {
		t.Fatalf("use without name should fail")
	}
	if err := sh.Execute("use ../evil"); err == nil {
		t.Fatalf("use with escaping name should fail")
	}
}

// TestShellWALCommand: `wal` lists the journaled tail of the active
// database and guides the user outside catalog mode.
func TestShellWALCommand(t *testing.T) {
	var out strings.Builder
	sh := shell.New(&out)
	if err := sh.Execute("wal"); err == nil || !strings.Contains(err.Error(), "no catalog database") {
		t.Fatalf("wal without catalog: %v", err)
	}
	const loaded = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`
	doc, err := xmlcodec.DecodeString(loaded)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`data ` + t.TempDir(),
		`use movies`,
		`loadxml ` + loaded,
		`integratexml <addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`,
		`query //person[nm="John"]/tel`,
		`feedback incorrect 2222`,
		`wal`,
	} {
		if err := sh.Execute(line); err != nil {
			t.Fatalf("execute %q: %v\n%s", line, err, out.String())
		}
	}
	got := out.String()
	for _, want := range []string{
		fmt.Sprintf("replace    document of %d node(s)", doc.NodeCount()),
		"integrate  1 source(s)",
		`feedback   incorrect "2222"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("wal output missing %q:\n%s", want, got)
		}
	}
	if err := sh.Execute("wal x"); err == nil {
		t.Fatalf("wal with bad count should fail")
	}
}
