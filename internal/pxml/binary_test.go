package pxml

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/codec"
)

func binaryFixture() *Tree {
	movie := func(title, year string) *Node {
		return NewElem("movie", "",
			Certain(NewLeaf("title", title)),
			Certain(NewLeaf("year", year)),
		)
	}
	cat := NewElem("catalog", "",
		Certain(movie("Jaws", "1975")),
		NewProb(
			NewPoss(0.25, movie("Jaws 2", "1978")),
			NewPoss(0.5, movie("Jaws II", "1978")),
			NewPoss(0.25),
		),
	)
	return CertainTree(cat)
}

func TestBinaryRoundTrip(t *testing.T) {
	trees := map[string]*Tree{
		"fixture": binaryFixture(),
		"leaf":    CertainTree(NewLeaf("a", "x")),
		"empty":   MustTree(NewProb(NewPoss(1))),
	}
	for name, tr := range trees {
		data := tr.AppendBinary(nil)
		got, err := DecodeArena(data)
		if err != nil {
			t.Fatalf("%s: DecodeArena: %v", name, err)
		}
		if !Equal(tr.Root(), got.Root()) {
			t.Fatalf("%s: round trip not Equal", name)
		}
		if tr.Digest() != got.Digest() {
			t.Fatalf("%s: digest changed across round trip", name)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded tree invalid: %v", name, err)
		}
		if tr.WorldCount().Cmp(got.WorldCount()) != 0 {
			t.Fatalf("%s: world count changed across round trip", name)
		}
	}
}

func TestBinaryExactProbabilities(t *testing.T) {
	// Binary round trips carry the float bits exactly — including values
	// that have no short decimal form.
	p := 1.0 / 3.0
	tr := MustTree(NewProb(
		NewPoss(p, NewLeaf("a", "")),
		NewPoss(p, NewLeaf("b", "")),
		NewPoss(1-2*p, NewLeaf("c", "")),
	))
	got, err := DecodeArena(tr.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root().Child(0).Prob() != p {
		t.Fatalf("probability %v not bit-exact, got %v", p, got.Root().Child(0).Prob())
	}
}

func TestBinaryPreservesSharing(t *testing.T) {
	shared := Certain(NewLeaf("leaf", "v"))
	tr := CertainTree(NewElem("root", "",
		Certain(NewElem("a", "", shared)),
		Certain(NewElem("b", "", shared)),
		shared,
	))
	got, err := DecodeArena(tr.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if w, g := tr.PhysicalNodeCount(), got.PhysicalNodeCount(); w != g {
		t.Fatalf("physical nodes %d, want %d (sharing lost)", g, w)
	}
	if w, g := tr.NodeCount(), got.NodeCount(); w != g {
		t.Fatalf("logical nodes %d, want %d", g, w)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	a := binaryFixture().AppendBinary(nil)
	b := binaryFixture().AppendBinary(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("equal trees encode differently")
	}
}

func TestDecodeArenaRejectsCorruption(t *testing.T) {
	valid := binaryFixture().AppendBinary(nil)
	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := DecodeArena(valid[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := range valid {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			tr, err := DecodeArena(mut)
			if err != nil {
				continue
			}
			// A flip the decoder accepts must still decode to a valid
			// document whose digest matches its own trailer; the digest
			// check makes silent structural drift impossible.
			if err := tr.Validate(); err != nil {
				t.Fatalf("bit flip at %d decoded to invalid tree: %v", i, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeArena(append(append([]byte(nil), valid...), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("digest mismatch", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[len(mut)-1] ^= 0xFF
		if _, err := DecodeArena(mut); err == nil {
			t.Fatal("forged digest accepted")
		}
	})
}

func TestDecodeArenaRejectsInvalidStructure(t *testing.T) {
	// Hand-built payloads: version, string table, node count, records,
	// digest trailer (content irrelevant — the error must come earlier).
	build := func(strs []string, nodes ...[]byte) []byte {
		var st codec.StringTable
		for _, s := range strs {
			st.Intern(s)
		}
		p := []byte{BinaryVersion}
		p = st.AppendTo(p)
		p = codec.AppendUvarint(p, uint64(len(nodes)))
		for _, n := range nodes {
			p = append(p, n...)
		}
		return codec.AppendUint64(p, 0)
	}
	poss := func(p float64) []byte { // poss with no kids
		b := []byte{byte(KindPoss)}
		b = codec.AppendFloat64(b, p)
		return append(b, 0)
	}
	possHalf := func() []byte { return poss(0.5) }
	cases := map[string][]byte{
		"empty arena":     build(nil),
		"root not prob":   build([]string{"a"}, []byte{byte(KindElem), 0, 0, 0}),
		"unknown kind":    build(nil, []byte{7, 0}),
		"prob no kids":    build(nil, []byte{byte(KindProb), 0}),
		"forward child":   build(nil, append([]byte{byte(KindProb), 1}, 5)),
		"self child":      build(nil, append([]byte{byte(KindProb), 1}, 0)),
		"bad layering":    build(nil, possHalf(), []byte{byte(KindPoss) /*prob bits*/, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 1, 0}),
		"prob sum":        build(nil, possHalf(), []byte{byte(KindProb), 1, 0}),
		"orphan node":     build(nil, poss(1), poss(1), []byte{byte(KindProb), 1, 0}),
		"empty tag":       build([]string{""}, []byte{byte(KindElem), 0, 0, 0}),
		"string overflow": build([]string{"a"}, []byte{byte(KindElem), 9, 0, 0}),
		"bad version":     {99},
		"forged count":    append([]byte{BinaryVersion, 0}, codec.AppendUvarint(nil, 1<<40)...),
	}
	for name, data := range cases {
		if _, err := DecodeArena(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeArenaRejectsAmplifiedDAGs(t *testing.T) {
	// elem(i) -> prob -> {poss, poss} -> elem(i-1): every level of the
	// ladder doubles both the logical node count and the world count, so
	// a few KB of input implies ~2^4096 worlds. The saturating bottom-up
	// guards must reject it before any Summary (big.Int) is computed.
	var st codec.StringTable
	st.Intern("a")
	var body []byte
	count := uint64(0)
	emit := func(rec []byte) uint64 {
		body = append(body, rec...)
		count++
		return count - 1
	}
	poss := func(child uint64) []byte {
		b := codec.AppendFloat64([]byte{byte(KindPoss)}, 0.5)
		b = append(b, 1)
		return codec.AppendUvarint(b, child)
	}
	cur := emit([]byte{byte(KindElem), 0, 0, 0})
	const levels = 4096
	for l := 0; l < levels; l++ {
		a := emit(poss(cur))
		b := emit(poss(cur))
		pr := codec.AppendUvarint([]byte{byte(KindProb), 2}, a)
		pr = codec.AppendUvarint(pr, b)
		top := emit(pr)
		if l == levels-1 {
			break
		}
		el := codec.AppendUvarint([]byte{byte(KindElem), 0, 0, 1}, top)
		cur = emit(el)
	}
	p := []byte{BinaryVersion}
	p = st.AppendTo(p)
	p = codec.AppendUvarint(p, count)
	p = append(p, body...)
	p = codec.AppendUint64(p, 0)
	_, err := DecodeArena(p)
	if err == nil {
		t.Fatal("amplified DAG accepted")
	}
	if !errors.Is(err, codec.ErrInvalid) {
		t.Fatalf("unexpected error class: %v", err)
	}
}

func TestBinaryNearOneProbabilityClamped(t *testing.T) {
	var body []byte
	body = append(body, byte(KindElem), 0, 0, 0)
	poss := codec.AppendFloat64([]byte{byte(KindPoss)}, 1+ProbEpsilon/2)
	poss = append(poss, 1, 0)
	body = append(body, poss...)
	body = append(body, byte(KindProb), 1, 1)
	var st codec.StringTable
	st.Intern("a")
	p := []byte{BinaryVersion}
	p = st.AppendTo(p)
	p = codec.AppendUvarint(p, 3)
	p = append(p, body...)
	// Digest of the equivalent clamped tree (tag and text both use
	// string-table entry 0, "a").
	want := CertainTree(NewLeaf("a", "a"))
	p = codec.AppendUint64(p, want.Digest())
	got, err := DecodeArena(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root().Child(0).Prob() != 1 {
		t.Fatalf("probability %g not clamped to 1", got.Root().Child(0).Prob())
	}
}

// FuzzDecodeArena: arbitrary bytes decode, as a self-contained payload,
// to an error or to a valid document that round-trips through the
// self-contained and the compact layout alike.
func FuzzDecodeArena(f *testing.F) {
	f.Add(binaryFixture().AppendBinary(nil))
	f.Add(CertainTree(NewLeaf("a", "x")).AppendBinary(nil))
	f.Add(MustTree(NewProb(NewPoss(1))).AppendBinary(nil))
	f.Add([]byte{BinaryVersion, 0, 1, byte(KindProb), 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeArena(data)
		if err != nil {
			return
		}
		checkDecodedArena(t, tr)
	})
}

// checkDecodedArena holds what every accepted payload must give: a valid
// document that round-trips, with no NaN probability.
func checkDecodedArena(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	again, err := DecodeArena(tr.AppendBinary(nil))
	if err != nil {
		t.Fatalf("re-encode failed to decode: %v", err)
	}
	if !Equal(tr.Root(), again.Root()) {
		t.Fatal("re-encode round trip not Equal")
	}
	var fresh codec.SharedStrings
	compact, err := DecodeArenaWith(tr.AppendBinaryShared(nil, &fresh), DecodeArenaOptions{Strings: fresh.Strings()})
	if err != nil || compact.Digest() != tr.Digest() || !Equal(tr.Root(), compact.Root()) {
		t.Fatalf("compact round trip: %v", err)
	}
	if math.IsNaN(tr.Root().Prob()) {
		t.Fatal("NaN probability survived")
	}
}
