package pxml_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/xmlcodec"
)

// referenceDigest is the structural digest as it was computed before nodes
// carried it: hash/fnv's FNV-1a over the kind, tag and text, the quantized
// probability of a possibility and the children's digests.
func referenceDigest(n *pxml.Node, memo map[*pxml.Node]uint64) uint64 {
	if d, ok := memo[n]; ok {
		return d
	}
	h := fnv.New64a()
	h.Write([]byte{byte(n.Kind())})
	h.Write([]byte(n.Tag()))
	h.Write([]byte{0})
	h.Write([]byte(n.Text()))
	h.Write([]byte{0})
	if n.Kind() == pxml.KindPoss {
		q := int64(math.Round(n.Prob() / pxml.ProbEpsilon))
		h.Write([]byte(strconv.FormatInt(q, 16)))
	}
	var buf [8]byte
	for _, k := range n.Children() {
		kh := referenceDigest(k, memo)
		for i := range buf {
			buf[i] = byte(kh >> (8 * i))
		}
		h.Write(buf[:])
	}
	memo[n] = h.Sum64()
	return memo[n]
}

// TestDigestMatchesReference: the digest a node gets at construction is the
// byte-for-byte digest snapshots, log trailers, replication and the result
// cache have always carried — on every node of random catalogs, of
// uncertain random trees, of their XML round trips and of their arena round
// trips, and for a few documents whose digests were recorded before.
func TestDigestMatchesReference(t *testing.T) {
	check := func(label string, tr *pxml.Tree) {
		t.Helper()
		memo := map[*pxml.Node]uint64{}
		pxml.WalkUnique(tr.Root(), func(n *pxml.Node) bool {
			if got, want := pxml.Hash(n), referenceDigest(n, memo); got != want {
				t.Fatalf("%s: %v node digest %#x, reference %#x", label, n.Kind(), got, want)
			}
			return true
		})
	}
	roundTrips := func(label string, tr *pxml.Tree) {
		t.Helper()
		check(label, tr)
		src, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{KeepTrivial: true})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := xmlcodec.DecodeString(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label+", XML-decoded", decoded)
		arena, err := pxml.DecodeArena(tr.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label+", arena-decoded", arena)
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roundTrips("random catalog", pxmltest.RandomCatalog(rng, 2+rng.Intn(8)))
		roundTrips("random tree", pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig()))
	}
	roundTrips("datagen catalog", datagen.Typical(6, 6, 2, 1).A.Tree)

	src, err := xmlcodec.DecodeString(`<catalog><movie id="m1"><title>Jaws</title><year>1975</year></movie><movie id="m2"><title>Alien</title></movie></catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		tree  *pxml.Tree
		want  uint64
	}{
		{"leaf", pxml.CertainTree(pxml.NewLeaf("a", "x")), 0x0ebdb4228a9bcb16},
		{"figure 2", pxmltest.Fig2Tree(), 0x7439f0398a0504a2},
		{"thirds", pxml.CertainTree(pxml.NewElem("r", "", pxml.NewProb(
			pxml.NewPoss(1.0/3, pxml.NewLeaf("v", "a")), pxml.NewPoss(2.0/3, pxml.NewLeaf("v", "b"))))), 0x828f70a00aac89f5},
		{"empty alternative", pxml.MustTree(pxml.NewProb(pxml.NewPoss(1))), 0x66c26335576cc371},
		{"decoded catalog", src, 0x9bf1b6504fb58b5d},
	} {
		if got := c.tree.Digest(); got != c.want {
			t.Errorf("%s: digest %#016x, recorded %#016x", c.label, got, c.want)
		}
	}
}

// TestNodeSizeClass: the digest and the normal-form pointer fit the node in
// the 96-byte allocation size class.
func TestNodeSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(pxml.Node{}); size > 96 {
		t.Fatalf("pxml.Node is %d bytes, want at most 96", size)
	}
}
