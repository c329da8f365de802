//go:build !race

// The race detector's sync.Pool drops a share of what is put back (the
// arena encoder's index among it), so these counts hold in a plain build
// only.

package catalog

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// TestWALAppendBytesDoNotGrow: a journal append encodes its record into
// the log's own frame buffer, so once the string table holds a source's
// strings (and the segment index has room), an append allocates next to
// nothing, however many came before it. The record used to be built three
// times over — the tree, the body, the frame — and its stats marshalled
// as JSON: about seven times the frame it wrote.
func TestWALAppendBytesDoNotGrow(t *testing.T) {
	w, err := recoverWAL(t.TempDir(), 1<<30, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	op := core.Op{Kind: core.OpIntegrate, SourceTrees: []*pxml.Tree{pxmltest.RandomCatalog(rand.New(rand.NewSource(3)), 30)}}
	// A collection empties sync.Pool, and the encoder's pooled index with
	// it, and a pooled value put back on one P is missed by a Get on
	// another: neither happens while the appends are counted. The least
	// of three rounds discounts what other goroutines of the test binary
	// allocate meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perAppend := func(n int) float64 {
		least := math.Inf(1)
		for round := 0; round < 3; round++ {
			w.index = make([]segEntry, len(w.index), len(w.index)+n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if _, err := w.append(op); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
		}
		return least
	}
	perAppend(4) // the table learns the strings, the buffer its size
	few, many := perAppend(16), perAppend(256)
	frame := float64(w.appendedBytes / w.appends)
	if few > 32 || many > 32 {
		t.Fatalf("an append allocates %.0f bytes over 16 appends, %.0f over 256, for a %.0f byte frame", few, many, frame)
	}
}
