package xmlcodec_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/xmlcodec"
)

// FuzzXMLDecode: every document the decoder accepts gives a tree that
// validates, whose sharing is maximal — interning it again finds no two
// equal subtrees left apart — and, when it binds no namespace, that Encode
// writes back to text decoding to a pxml.Equal tree. (A namespace, declared
// or the predeclared xml:, is resolved into the names it qualifies,
// "http://example.com/p:b", which are not names Encode can write.) The
// round trip keeps trivial choice
// points: the default output writes a certain choice point as its bare
// elements, the same document but not the same tree when it holds other than
// one. Whichever tokenizer read the input, Decode gives what encoding/xml's
// alone gives: a pxml.Equal tree with the same digest, or the same error.
// Seeds are datagen catalogs, corpus-shaped sources (attributes, messy
// years, naming conventions), the marker edge cases, namespaces, entities and
// CDATA.
func FuzzXMLDecode(f *testing.F) {
	for _, src := range decodeSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := xmlcodec.DecodeString(src)
		sameAsReference(t, src, tr, err)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded tree does not validate: %v", err)
		}
		if got, want := tr.PhysicalNodeCount(), pxml.InternTree(tr).PhysicalNodeCount(); got != want {
			t.Fatalf("%d physical nodes, %d after interning again: sharing is not maximal", got, want)
		}
		if strings.Contains(src, "xmlns") || strings.Contains(src, "xml:") {
			return
		}
		out, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{KeepTrivial: true})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := xmlcodec.DecodeString(out)
		if err != nil {
			t.Fatalf("re-decoding %q: %v", out, err)
		}
		if !pxml.Equal(tr.Root(), back.Root()) {
			t.Fatalf("round trip through %q changed the tree", out)
		}
	})
}

// sameAsReference fails unless Decode's result for src, tr or err, is what
// encoding/xml's tokenizer alone gives.
func sameAsReference(t testing.TB, src string, tr *pxml.Tree, err error) {
	t.Helper()
	want, werr := xmlcodec.DecodeReference(src)
	switch {
	case err != nil || werr != nil:
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("Decode(%q): %v, encoding/xml alone: %v", src, err, werr)
		}
	case !pxml.Equal(tr.Root(), want.Root()) || tr.Digest() != want.Digest():
		t.Fatalf("Decode(%q) gives another tree than encoding/xml alone", src)
	}
}

// decodeSeeds are the fuzzer's seeds: datagen catalogs, the Figure 2
// document, and hand-written sources covering the markers, attributes,
// references, comments, declarations, CDATA and namespaces.
func decodeSeeds(tb testing.TB) []string {
	var seeds []string
	add := func(tr *pxml.Tree) {
		src, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, src)
	}
	pair := datagen.Typical(3, 4, 1, 1)
	add(pair.A.Tree)
	add(pair.B.Tree)
	add(datagen.TableISources().A.Tree)
	add(pxmltest.Fig2Tree())
	return append(seeds,
		`<catalog><movie id="m1" lang="en"><title>Jaws</title><year>c. 1975</year><director>Spielberg, Steven</director></movie>`+
			`<movie id="m2"><title>Jaws</title><year>75</year><genre>Horror</genre></movie><movie id="m1" lang="en"><title>Jaws</title><year>c. 1975</year><director>Spielberg, Steven</director></movie></catalog>`,
		`<a><_prob><_poss p="0.25"><b>1</b></_poss><_poss p="0.75"><b>2</b><c/></_poss></_prob></a>`,
		`<a><_prob><_poss p="1"/></_prob></a>`,
		`<a><_prob><_poss p="1"><b/><c x="1"/></_poss></_prob></a>`,
		`<a><_prob><_poss p="0.5"><b/></_poss><_poss p="0.5"><b/></_poss></_prob></a>`,
		`<a><_prob><_poss p="0.4"><b x="1">t</b></_poss><_poss p="0.6"></_poss></_prob><_prob><_poss p="1"><b x="1">t</b></_poss></_prob></a>`,
		`<a><_poss p="1"/></a>`,
		`<a><_prob></_prob></a>`,
		`<a><_prob><_poss p="0"><b/></_poss></_prob></a>`,
		`<a><_prob><_poss p="0.7"><b/></_poss></_prob></a>`,
		`<a><_prob><_poss q="1"><b/></_poss></_prob></a>`,
		`<a t="&lt;&amp;&quot;&apos;&#65;&#x42;">x &amp; y &lt;z&gt; &#169;</a>`,
		`<a><![CDATA[<not> & markup]]> tail</a>`,
		`<?xml version="1.0"?><!-- c --><a> <b>  spaced  </b> </a>`,
		`<a>text<b/>more</a>`,
		`<a/>`,
		`<a xmlns:p="http://example.com/p" p:x="1"><p:b>t</p:b><b xmlns="http://example.com/d"/></a>`,
		`<a><b></a></b>`,
	)
}
