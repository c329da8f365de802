//go:build !race

// The race detector instruments allocations, so byte counts hold in a plain
// build only.

package xmlcodec_test

import (
	"runtime"
	"testing"

	"repro/internal/xmlcodec"
)

// TestDecodeMessySourceBytes: decoding a messy source — the byte scanner's
// case — allocates at most 15 % more than the 46 696 bytes measured when
// the scanner replaced encoding/xml's tokenizer on this path, which
// allocated 91 568.
func TestDecodeMessySourceBytes(t *testing.T) {
	const measured = 46696 // bytes per Decode of this source
	src := messySource()
	decode := func() {
		if _, err := xmlcodec.DecodeString(src); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&m1)
	got := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("%d-byte source: %d bytes allocated per Decode (%d measured)", len(src), got, measured)
	if got > measured*115/100 {
		t.Fatalf("Decode allocates %d bytes for a %d-byte messy source, want at most 115%% of %d", got, len(src), measured)
	}
}
