package pxml

import (
	"testing"

	"repro/internal/codec"
)

func TestBinarySharedRoundTrip(t *testing.T) {
	var tab codec.SharedStrings
	trees := []*Tree{
		binaryFixture(),
		CertainTree(NewLeaf("a", "x")),
		MustTree(NewProb(NewPoss(1))),
	}
	var payloads [][]byte
	for _, tr := range trees {
		payloads = append(payloads, tr.AppendBinaryShared(nil, &tab))
	}
	// All three payloads resolve against the one cumulative table — the
	// WAL-segment shape, where each record's delta extends the same table.
	strs := tab.Strings()
	for i, tr := range trees {
		got, err := DecodeArenaWith(payloads[i], DecodeArenaOptions{Strings: strs})
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if !Equal(tr.Root(), got.Root()) {
			t.Fatalf("tree %d: round trip not Equal", i)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("tree %d: decoded tree invalid: %v", i, err)
		}
	}
	// Shared payloads spell no strings inline: re-encoding the fixture
	// against a warm table must be smaller than the self-contained form.
	if self := trees[0].AppendBinary(nil); len(payloads[0]) >= len(self) {
		t.Fatalf("shared payload %dB not smaller than self-contained %dB", len(payloads[0]), len(self))
	}
}

func TestBinarySharedRejectsBadIndex(t *testing.T) {
	var tab codec.SharedStrings
	tr := binaryFixture()
	payload := tr.AppendBinaryShared(nil, &tab)
	// Decoding against a short table must fail cleanly, not misresolve.
	short := tab.Strings()[:1]
	if _, err := DecodeArenaWith(payload, DecodeArenaOptions{Strings: short}); err == nil {
		t.Fatal("short table accepted")
	}
	if _, err := DecodeArenaWith(payload, DecodeArenaOptions{}); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestDecodeArenaExpectedDigestAndLogical(t *testing.T) {
	tr := binaryFixture()
	data := tr.AppendBinary(nil)
	logical := tr.NodeCount()

	got, err := DecodeArenaWith(data, DecodeArenaOptions{ZeroCopy: true, ExpectLogical: logical})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tr.Root(), got.Root()) || got.Digest() != tr.Digest() {
		t.Fatal("validated zero-copy decode not Equal")
	}

	// Every decode checks the trailer against the digests it computes.
	wrong := append([]byte(nil), data...)
	wrong[len(wrong)-1] ^= 1
	if _, err := DecodeArenaWith(wrong, DecodeArenaOptions{ZeroCopy: true}); err == nil {
		t.Fatal("wrong trailer digest accepted")
	}
	if _, err := DecodeArenaWith(data, DecodeArenaOptions{ExpectLogical: logical + 1}); err == nil {
		t.Fatal("wrong expected logical count accepted")
	}
}

func TestDecodeArenaZeroCopyMatchesCopying(t *testing.T) {
	tr := binaryFixture()
	data := tr.AppendBinary(nil)
	a, err := DecodeArenaWith(data, DecodeArenaOptions{ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArena(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a.Root(), b.Root()) {
		t.Fatal("zero-copy and copying decodes differ")
	}
}

// FuzzDecodeArenaShared: arbitrary bytes decode against one string table,
// under revision 2 or 3, to an error or to a valid document that
// round-trips. The first two seeds are revision 2, the last two revision 3.
func FuzzDecodeArenaShared(f *testing.F) {
	var tab codec.SharedStrings
	trees := []*Tree{binaryFixture(), CertainTree(NewLeaf("a", "x"))}
	for _, v := range []byte{BinaryVersionShared, BinaryVersionCompact} {
		for _, tr := range trees {
			f.Add(tr.appendShared(nil, &tab, v))
		}
	}
	strs := tab.Strings()
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeArenaWith(data, DecodeArenaOptions{Strings: strs})
		if err != nil {
			return
		}
		checkDecodedArena(t, tr)
	})
}
