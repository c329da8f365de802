//go:build !race

// The race detector instruments allocations, so byte counts hold in a plain
// build only.

package xmlcodec_test

import (
	"runtime"
	"testing"

	"repro/internal/xmlcodec"
)

// TestDecodeMessySourceBytes: decoding a messy source allocates at most 60 %
// of what it did when interning built a full Summary for every node just to
// read its digest, and a hash map and an FNV state per node to compute it.
func TestDecodeMessySourceBytes(t *testing.T) {
	const before = 202832 // bytes per Decode of this source when every intern built a Summary
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
	t.Logf("%d-byte source: %d bytes allocated per Decode (%d before)", len(src), got, before)
	if got > before*60/100 {
		t.Fatalf("Decode allocates %d bytes for a %d-byte messy source, want at most 60%% of %d", got, len(src), before)
	}
}
