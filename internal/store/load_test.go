package store_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/store"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestLoadHoldsNoMapping proves Load reads the document into the heap
// instead of mapping it: no line of /proc/self/maps names the document
// file after a load, and none names it as "(deleted)" once the next
// Save has unlinked it — a mapping would keep its blocks allocated
// until the process exits.
func TestLoadHoldsNoMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	dir := t.TempDir()
	first, err := store.SaveWith(dir, pxmltest.Fig2Tree(), nil, store.SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(dir, first.DocumentFile)
	snap, err := store.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	mappingsOf := func() []string {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		var hits []string
		for _, line := range strings.Split(string(maps), "\n") {
			if strings.Contains(line, docPath) {
				hits = append(hits, line)
			}
		}
		return hits
	}
	if hits := mappingsOf(); len(hits) > 0 {
		t.Fatalf("Load left the document mapped: %q", hits)
	}

	second, err := store.SaveWith(dir, pxmltest.RandomTree(newRng(), pxmltest.DefaultGenConfig()), nil, store.SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.DocumentFile == first.DocumentFile {
		t.Fatal("second save reused the first document file")
	}
	if _, err := os.Stat(docPath); !os.IsNotExist(err) {
		t.Fatalf("second save kept the first document file: %v", err)
	}
	if hits := mappingsOf(); len(hits) > 0 {
		t.Fatalf("unlinked document still mapped: %q", hits)
	}
	if !pxml.Equal(snap.Tree.Root(), pxmltest.Fig2Tree().Root()) {
		t.Fatal("loaded tree changed after its file was unlinked")
	}
}

// TestReadManifestOnly proves the quick stat path never opens payload
// files: it works even when the document file is corrupt.
func TestReadManifestOnly(t *testing.T) {
	dir := t.TempDir()
	tree := pxmltest.Fig2Tree()
	saved, err := store.SaveWith(dir, tree, nil, store.SaveOptions{Comment: "quick", LogSeq: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload: a full Load must now fail…
	docPath := filepath.Join(dir, saved.DocumentFile)
	if err := writeFile(docPath, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir); err == nil {
		t.Fatal("Load succeeded over corrupt document")
	}
	// …while ReadManifest still answers from the manifest alone.
	m, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != store.FormatVersion || m.LogSeq != 42 || m.Comment != "quick" {
		t.Fatalf("manifest = %+v", m)
	}
	if m.LogicalNodes != tree.NodeCount() || m.Worlds != tree.WorldCount().String() {
		t.Fatalf("manifest sizes = %d nodes %s worlds", m.LogicalNodes, m.Worlds)
	}
}
