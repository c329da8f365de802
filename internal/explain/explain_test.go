package explain_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/explain"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxmltest"
	"repro/internal/query"
	"repro/internal/xmlcodec"
)

func TestExplainFig2Answer(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person/tel`)
	r, err := explain.Answer(tr, q, "2222")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if math.Abs(r.P-0.7) > 1e-9 {
		t.Fatalf("P = %v, want 0.7", r.P)
	}
	if len(r.Choices) != 2 {
		t.Fatalf("choices = %d, want 2 (merge choice and phone choice)", len(r.Choices))
	}
	// Two choice points affect the answer. The phone value choice:
	// forcing tel=1111 leaves P(2222) = 0.4 (separate world only),
	// forcing tel=2222 gives 1 — influence 0.6. The merge choice: merged
	// forces 0.5, separate forces 1 — influence 0.5. So the phone choice
	// ranks first.
	top := r.Choices[0]
	if len(top.Alternatives) != 2 {
		t.Fatalf("alternatives = %d", len(top.Alternatives))
	}
	for _, c := range r.Choices {
		for _, a := range c.Alternatives {
			if a.Posterior < -1e-9 || a.Posterior > 1+1e-9 {
				t.Fatalf("posterior out of range: %+v", a)
			}
		}
	}
	if math.Abs(top.Influence-0.6) > 1e-9 {
		t.Fatalf("top influence = %v, want 0.6", top.Influence)
	}
	if math.Abs(r.Choices[1].Influence-0.5) > 1e-9 {
		t.Fatalf("second influence = %v, want 0.5", r.Choices[1].Influence)
	}
	pg := map[float64]bool{}
	for _, a := range top.Alternatives {
		pg[math.Round(a.PAnswer*1000)/1000] = true
	}
	if !pg[0.4] || !pg[1] {
		t.Fatalf("P(answer|alt) of the phone choice = %+v, want {0.4, 1}", top.Alternatives)
	}
	// Posteriors sum to 1 across each choice point's alternatives.
	for _, c := range r.Choices {
		sum := 0.0
		for _, a := range c.Alternatives {
			sum += a.Posterior
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posteriors of %s sum to %v", c.Path, sum)
		}
	}
}

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestExplainIndependentChoiceHasNoInfluence(t *testing.T) {
	// A document with two independent choices; the query touches only one.
	tr, err := xmlcodec.DecodeString(`
		<r>
			<_prob><_poss p="0.5"><a>x</a></_poss><_poss p="0.5"><a>y</a></_poss></_prob>
			<_prob><_poss p="0.5"><b>1</b></_poss><_poss p="0.5"><b>2</b></_poss></_prob>
		</r>`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := explain.Answer(tr, query.MustCompile(`//a`), "x")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(r.Choices) != 1 {
		t.Fatalf("only the a-choice should be reported: %+v", r.Choices)
	}
	if !strings.Contains(r.Choices[0].Alternatives[0].Summary, "<a>") {
		t.Fatalf("summary = %q", r.Choices[0].Alternatives[0].Summary)
	}
}

func TestExplainNoAnswer(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	_, err := explain.Answer(tr, query.MustCompile(`//person/tel`), "9999")
	if !errors.Is(err, explain.ErrNoAnswer) {
		t.Fatalf("err = %v", err)
	}
}

func TestExplainCertainAnswer(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	r, err := explain.Answer(tr, query.MustCompile(`//person/nm`), "John")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if !close(r.P, 1) {
		t.Fatalf("P = %v", r.P)
	}
	if len(r.Choices) != 0 {
		t.Fatalf("certain answer should not depend on choices: %+v", r.Choices)
	}
	if !strings.Contains(r.Format(), "does not depend") {
		t.Fatalf("format = %q", r.Format())
	}
}

func TestExplainMovieArtifact(t *testing.T) {
	// The paper's §VI artifact: explain why 'Mission: Impossible' shows up
	// as a John movie. The influential choice must involve the MI merge.
	pair := datagen.Confusing(12, 1)
	tree, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle: oracle.MovieOracle(oracle.SetGenreTitle),
		Schema: datagen.MovieDTD(),
	})
	if err != nil {
		t.Fatalf("integrate: %v", err)
	}
	q := query.MustCompile(`//movie[some $d in .//director satisfies contains($d,"John")]/title`)
	r, err := explain.Answer(tree, q, "Mission: Impossible")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if r.P <= 0.01 || r.P >= 0.5 {
		t.Fatalf("artifact P = %v", r.P)
	}
	if len(r.Choices) == 0 {
		t.Fatalf("artifact should depend on choices")
	}
	out := r.Format()
	if !strings.Contains(out, "influence") {
		t.Fatalf("format:\n%s", out)
	}
	// The most influential choice point should change the artifact's
	// probability substantially.
	if r.Choices[0].Influence < 0.05 {
		t.Fatalf("top influence = %v", r.Choices[0].Influence)
	}
}
