package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSoakManifestSizeFlat runs integrate/reject cycles through a catalog
// database and compacts it every 64 sources: the manifest must not grow
// with the number of sources the database has taken. Each cycle
// integrates one person under a known name with a new number, and the
// rejection of that number conditions the document back to what it was,
// so the document, its world count and the one feedback event a manifest
// holds after a rejection keep their size; what may still vary is the
// digits of the count and the log position, and the two timestamps
// (RFC 3339 drops a fraction's trailing zeros, up to 10 bytes each).
func TestSoakManifestSizeFlat(t *testing.T) {
	const (
		sources      = 256
		compactEvery = 64
		slack        = 24
	)
	dir := t.TempDir()
	cat, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	db, err := cat.Create("soak")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	if _, err := cdb.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if err := cdb.ReplaceTree(cdb.Tree()); err != nil { // the count starts at 0
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "soak", stateDirName, "manifest.json")
	var first int64
	for i := 1; i <= sources; i++ {
		tel := fmt.Sprintf("%04d", i)
		if _, err := cdb.IntegrateXMLString(`<addressbook><person><nm>John</nm><tel>` + tel + `</tel></person></addressbook>`); err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if _, err := cdb.Feedback(`//person[nm="John"]/tel`, tel, false); err != nil {
			t.Fatalf("rejecting source %d: %v", i, err)
		}
		if i%compactEvery != 0 {
			continue
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(manifest)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("after %d sources: manifest %d B, %d logical nodes", i, fi.Size(), cdb.Stats().LogicalNodes)
		if first == 0 {
			first = fi.Size()
		} else if d := fi.Size() - first; d > slack || d < -slack {
			t.Fatalf("after %d sources the manifest is %d B, after %d it was %d B", i, fi.Size(), compactEvery, first)
		}
	}
	if n := cdb.IntegrationCount(); n != sources {
		t.Fatalf("integration count %d, want %d", n, sources)
	}
}
