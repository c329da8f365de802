package pxml

import (
	"strings"
	"testing"
)

// These tests build malformed trees directly (bypassing the constructors,
// which reject them) to exercise the validator.

func rawNode(kind Kind, tag, text string, prob float64, kids ...*Node) *Node {
	return &Node{kind: kind, tag: tag, text: text, prob: prob, kids: kids}
}

func TestValidateAcceptsValid(t *testing.T) {
	tr := CertainTree(NewElem("movie", "",
		Certain(NewLeaf("title", "Jaws")),
		NewProb(NewPoss(0.4, NewLeaf("year", "1975")), NewPoss(0.6, NewLeaf("year", "1976"))),
	))
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	leaf := NewLeaf("a", "")
	cases := []struct {
		name string
		tree *Tree
		want string
	}{
		{"nil tree", nil, "nil tree"},
		{"elem root", &Tree{root: rawNode(KindElem, "a", "", 0)}, "root must be prob"},
		{"prob no poss", &Tree{root: rawNode(KindProb, "", "", 0)}, "without possibilities"},
		{"prob child elem", &Tree{root: rawNode(KindProb, "", "", 0, leaf)}, "must be poss"},
		{"prob sums wrong", &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 0.5, leaf), rawNode(KindPoss, "", "", 0.2))}, "sum to"},
		{"poss prob zero", &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 0, leaf), rawNode(KindPoss, "", "", 1))}, "out of range"},
		{"poss child prob", &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 1, rawNode(KindProb, "", "", 0, rawNode(KindPoss, "", "", 1))))}, "must be element"},
		{"elem empty tag", &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 1, rawNode(KindElem, "", "", 0)))}, "empty tag"},
		{"elem child poss", &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 1, rawNode(KindElem, "a", "", 0, rawNode(KindPoss, "", "", 1))))}, "must be prob"},
		{"unknown kind", &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 1, rawNode(Kind(9), "a", "", 0)))}, "must be element"},
		{"nil child", &Tree{root: rawNode(KindProb, "", "", 0, nil)}, "must be poss"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tree.Validate()
			if err == nil {
				t.Fatalf("expected validation error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	elem := rawNode(KindElem, "a", "", 0)
	poss := rawNode(KindPoss, "", "", 1, elem)
	prob := rawNode(KindProb, "", "", 0, poss)
	elem.kids = []*Node{prob} // cycle: elem -> prob -> poss -> elem
	tr := &Tree{root: prob}
	err := tr.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestValidateAllowsSharing(t *testing.T) {
	shared := NewLeaf("x", "v")
	tr := CertainTree(NewElem("r", "",
		NewProb(NewPoss(0.5, shared), NewPoss(0.5, shared, shared)),
		Certain(shared),
	))
	if err := tr.Validate(); err != nil {
		t.Fatalf("sharing rejected: %v", err)
	}
}

func TestValidationErrorPathMentionsLocation(t *testing.T) {
	bad := &Tree{root: rawNode(KindProb, "", "", 0,
		rawNode(KindPoss, "", "", 1,
			rawNode(KindElem, "movie", "", 0,
				rawNode(KindProb, "", "", 0))))} // inner prob without possibilities
	err := bad.Validate()
	if err == nil {
		t.Fatalf("expected error")
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T, want *ValidationError", err)
	}
	if !strings.Contains(ve.Path, "movie") {
		t.Fatalf("path %q should mention the movie element", ve.Path)
	}
}

// TestValidateMessages pins Validate's messages, paths included, byte for
// byte: one case per kind of violation, at depths that exercise every step
// label (poss[i], an element's tag, elem[i], prob[i]).
func TestValidateMessages(t *testing.T) {
	leaf := NewLeaf("a", "")
	deep := func(bad *Node) *Tree {
		return &Tree{root: rawNode(KindProb, "", "", 0,
			rawNode(KindPoss, "", "", 0.5, leaf),
			rawNode(KindPoss, "", "", 0.5, leaf, rawNode(KindElem, "movie", "", 0, Certain(leaf), bad)))}
	}
	cycle := rawNode(KindElem, "loop", "", 0)
	cycle.kids = []*Node{rawNode(KindProb, "", "", 0, rawNode(KindPoss, "", "", 1, cycle))}
	cases := []struct {
		name string
		tree *Tree
		want string
	}{
		{"nil tree", nil, "pxml: invalid document at /: nil tree"},
		{"root not prob", &Tree{root: leaf}, "pxml: invalid document at /: root must be prob, got elem"},
		{"prob without poss", deep(rawNode(KindProb, "", "", 0)),
			"pxml: invalid document at /poss[1]/movie/prob[1]: prob node without possibilities"},
		{"prob child not poss", deep(rawNode(KindProb, "", "", 0, leaf)),
			"pxml: invalid document at /poss[1]/movie/prob[1]/poss[0]: prob child must be poss"},
		{"prob sum", deep(rawNode(KindProb, "", "", 0, rawNode(KindPoss, "", "", 0.25), rawNode(KindPoss, "", "", 0.5))),
			"pxml: invalid document at /poss[1]/movie/prob[1]: possibility probabilities sum to 0.75, want 1"},
		{"poss out of range", deep(rawNode(KindProb, "", "", 0, rawNode(KindPoss, "", "", 1.5), rawNode(KindPoss, "", "", -0.5))),
			"pxml: invalid document at /poss[1]/movie/prob[1]/poss[0]: probability 1.5 out of range (0,1]"},
		{"poss child not elem", deep(rawNode(KindProb, "", "", 0, rawNode(KindPoss, "", "", 1, leaf, Certain(leaf)))),
			"pxml: invalid document at /poss[1]/movie/prob[1]/poss[0]/elem[1]: poss child must be element"},
		{"empty tag", deep(Certain(rawNode(KindElem, "", "", 0))),
			"pxml: invalid document at /poss[1]/movie/prob[1]/poss[0]/: element with empty tag"},
		{"elem child not prob", deep(Certain(rawNode(KindElem, "b", "", 0, Certain(leaf), NewPoss(1)))),
			"pxml: invalid document at /poss[1]/movie/prob[1]/poss[0]/b/prob[1]: element child must be prob"},
		{"nil child", deep(Certain(rawNode(KindElem, "b", "", 0, nil))),
			"pxml: invalid document at /poss[1]/movie/prob[1]/poss[0]/b/prob[0]: element child must be prob"},
		{"cycle", CertainTree(cycle),
			"pxml: invalid document at /poss[0]/loop/prob[0]/poss[0]/loop: cycle detected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tree.Validate()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Validate() = %v\nwant %s", err, tc.want)
			}
		})
	}
}
