package corpus_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/benchmark/corpus"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/oracle"
)

func sequenceText(seed int64, kind corpus.Kind) string {
	u := corpus.NewUniverse(seed, 200)
	out := ""
	for _, s := range u.Sequence(seed+1, kind, 6, 20) {
		out += s.XML + fmt.Sprint(s.Records)
	}
	return out
}

// The same seed must give the same bytes and the same ground truth, and
// another seed something else: the driver relies on both.
func TestSeedDeterminesSources(t *testing.T) {
	for _, kind := range []corpus.Kind{corpus.Clean, corpus.Messy} {
		a, b, c := sequenceText(7, kind), sequenceText(7, kind), sequenceText(8, kind)
		if a != b {
			t.Errorf("%s: seed 7 gave two different sequences", kind)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", kind)
		}
	}
}

// No source of the committed sizes may be rejected by the server's
// integration (explosion, conflicting must-matches, incompatible merges):
// a workload on which operations fail measures error handling. The
// database is configured as `serve -dtd movie.dtd -rules genre,title,year`.
func TestNoSourceIsRejected(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	cfg := core.Config{
		Schema: dtd.MustParse(corpus.DTD),
		Rules:  []oracle.Rule{oracle.GenreRule(), oracle.TitleRule(), oracle.YearRule()},
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		u := corpus.NewUniverse(seed, 640)
		for _, tc := range []struct {
			kind        corpus.Kind
			count, size int
		}{{corpus.Messy, 24, 30}, {corpus.Clean, 20, 15}} {
			db, err := core.OpenXML(strings.NewReader("<catalog/>"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range u.Sequence(seed*31, tc.kind, tc.count, tc.size) {
				if len(s.Records) != tc.size {
					t.Fatalf("seed %d %s source %d: %d records, want %d", seed, tc.kind, i, len(s.Records), tc.size)
				}
				if _, err := db.IntegrateXMLString(s.XML); err != nil {
					t.Fatalf("seed %d %s source %d: %v", seed, tc.kind, i, err)
				}
			}
		}
	}
}
