// Package experiments reproduces every table and figure of the paper's
// evaluation (§V–§VI) on the synthetic catalog. The same code backs the
// bench harness (bench_test.go) and the experiments command
// (cmd/experiments), which prints paper-vs-measured output.
//
// Node counts are taken from the raw (unnormalized) integration result,
// matching what the original system stores; the paper reports sizes in
// units of 100 nodes ("#nodes (x100)").
package experiments

import (
	"fmt"
	"math/big"
	"time"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/quality"
	"repro/internal/query"
)

// integrateRaw runs one integration with movie-domain defaults.
func integrateRaw(pair datagen.Pair, set oracle.RuleSet, truncate bool) (*pxml.Tree, *integrate.Stats, error) {
	return integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle:              oracle.MovieOracle(set),
		Schema:              datagen.MovieDTD(),
		SkipNormalize:       true,
		TruncateOnExplosion: truncate,
	})
}

// --- Table I ---

// Table1Row is one row of the paper's Table I: the effect of rules on
// uncertainty.
type Table1Row struct {
	Set        oracle.RuleSet
	Nodes      int64
	Worlds     *big.Int
	Undecided  int
	PaperNodes int64 // the paper's "#nodes (x100)" column, times 100
}

// paperTable1 is Table I of the paper (×100 units expanded).
var paperTable1 = map[oracle.RuleSet]int64{
	oracle.SetNone:           1395800,
	oracle.SetGenre:          601500,
	oracle.SetTitle:          24300,
	oracle.SetGenreTitle:     15400,
	oracle.SetGenreTitleYear: 2900,
}

// Table1 integrates the Table I scenario (two sequels per franchise per
// source, one shared rwo each) under each rule set.
func Table1() ([]Table1Row, error) {
	pair := datagen.TableISources()
	sets := []oracle.RuleSet{
		oracle.SetNone, oracle.SetGenre, oracle.SetTitle,
		oracle.SetGenreTitle, oracle.SetGenreTitleYear,
	}
	rows := make([]Table1Row, 0, len(sets))
	for _, set := range sets {
		res, stats, err := integrateRaw(pair, set, false)
		if err != nil {
			return nil, fmt.Errorf("table1 %v: %w", set, err)
		}
		rows = append(rows, Table1Row{
			Set:        set,
			Nodes:      res.NodeCount(),
			Worlds:     res.WorldCount(),
			Undecided:  stats.UndecidedPairs,
			PaperNodes: paperTable1[set],
		})
	}
	return rows, nil
}

// --- Figure 5 ---

// Fig5Point is one measurement of the scalability experiment: integrating
// 6 MPEG-7 movies with a growing number of confusing IMDB movies.
type Fig5Point struct {
	N     int
	Set   oracle.RuleSet
	Nodes int64
}

// Figure5Sets are the two series the paper plots.
var Figure5Sets = []oracle.RuleSet{oracle.SetTitle, oracle.SetGenreTitleYear}

// Figure5 sweeps the IMDB-source size for both rule series.
func Figure5(ns []int, seed int64) ([]Fig5Point, error) {
	var out []Fig5Point
	for _, n := range ns {
		pair := datagen.Confusing(n, seed)
		for _, set := range Figure5Sets {
			res, _, err := integrateRaw(pair, set, false)
			if err != nil {
				return nil, fmt.Errorf("fig5 n=%d %v: %w", n, set, err)
			}
			out = append(out, Fig5Point{N: n, Set: set, Nodes: res.NodeCount()})
		}
	}
	return out, nil
}

// DefaultFigure5Ns mirrors the paper's x axis (0..60 IMDB movies).
func DefaultFigure5Ns() []int { return []int{0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60} }

// --- typical conditions (§V text) ---

// TypicalResult captures the paper's "typical situation" numbers: 6 vs 60
// movies with 2 shared rwos integrate to ~3500 nodes, 4 possible worlds
// and 2 undecided matches.
type TypicalResult struct {
	Nodes     int64
	Worlds    *big.Int
	Undecided int
}

// Typical runs the typical-conditions integration with the full rule set.
func Typical() (TypicalResult, error) {
	pair := datagen.Typical(6, 60, 2, 3)
	res, stats, err := integrateRaw(pair, oracle.SetFull, false)
	if err != nil {
		return TypicalResult{}, err
	}
	return TypicalResult{
		Nodes:     res.NodeCount(),
		Worlds:    res.WorldCount(),
		Undecided: stats.UndecidedPairs,
	}, nil
}

// --- the §VI query experiments ---

// QueryExperiment is a query evaluated against the confusing integration.
type QueryExperiment struct {
	Query   string
	Worlds  *big.Int
	Nodes   int64
	Method  query.Method
	Answers []query.Answer
}

// QueryDocument builds the integrated document the paper queries: a
// confusing integration retaining sequel confusion (genre and title rules,
// no year rule).
func QueryDocument() (*pxml.Tree, error) {
	pair := datagen.Confusing(12, 1)
	res, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle: oracle.MovieOracle(oracle.SetGenreTitle),
		Schema: datagen.MovieDTD(),
	})
	return res, err
}

// HorrorQuery is the paper's first example query.
const HorrorQuery = `//movie[.//genre="Horror"]/title`

// JohnQuery is the paper's second example query.
const JohnQuery = `//movie[some $d in .//director satisfies contains($d,"John")]/title`

// RunQuery evaluates one of the §VI queries on a prebuilt document.
func RunQuery(doc *pxml.Tree, src string) (QueryExperiment, error) {
	q, err := query.Compile(src)
	if err != nil {
		return QueryExperiment{}, err
	}
	res, err := query.Eval(doc, q, query.Options{})
	if err != nil {
		return QueryExperiment{}, err
	}
	return QueryExperiment{
		Query:   src,
		Worlds:  doc.WorldCount(),
		Nodes:   doc.NodeCount(),
		Method:  res.Method,
		Answers: res.Answers,
	}, nil
}

// --- answer quality (§VII, ref [13]) ---

// QualityRow is one (rule set, query) quality measurement.
type QualityRow struct {
	Set     oracle.RuleSet
	Query   string
	Report  quality.Report
	Answers int
}

// QualitySets are the rule sets compared in the quality experiment (all
// include the title rule; without it the candidate component explodes).
var QualitySets = []oracle.RuleSet{
	oracle.SetTitle, oracle.SetGenreTitle, oracle.SetGenreTitleYear, oracle.SetFull,
}

// Quality measures probability-weighted precision/recall of the ranked
// answers against the ground-truth catalog, across rule sets.
func Quality() ([]QualityRow, error) {
	pair := datagen.Confusing(12, 1)
	queries := []string{HorrorQuery, JohnQuery, `//movie/title`}
	var rows []QualityRow
	for _, set := range QualitySets {
		tree, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
			Oracle: oracle.MovieOracle(set),
			Schema: datagen.MovieDTD(),
		})
		if err != nil {
			return nil, fmt.Errorf("quality %v: %w", set, err)
		}
		for _, qs := range queries {
			q := query.MustCompile(qs)
			res, err := query.Eval(tree, q, query.Options{})
			if err != nil {
				return nil, err
			}
			truthRes, err := query.Eval(pair.Truth, q, query.Options{})
			if err != nil {
				return nil, err
			}
			truth := make([]string, 0, len(truthRes.Answers))
			for _, a := range truthRes.Answers {
				truth = append(truth, a.Value)
			}
			rows = append(rows, QualityRow{
				Set:     set,
				Query:   qs,
				Report:  quality.Evaluate(res.Answers, truth),
				Answers: len(res.Answers),
			})
		}
	}
	return rows, nil
}

// --- ablation: component factorization (DESIGN E8) ---

// AblationResult compares integration with and without independent-
// component factorization.
type AblationResult struct {
	FactoredNodes     int64
	MonolithicNodes   int64
	FactoredWorlds    *big.Int
	MonolithicWorlds  *big.Int
	FactoredElapsed   time.Duration
	MonolithicElapsed time.Duration
	FactoredLargest   int
	MonolithicLargest int
}

// Ablation runs the factorization ablation on a typical catalog, where
// shared rwos form several independent match groups.
func Ablation() (AblationResult, error) {
	pair := datagen.Typical(6, 12, 4, 5)
	run := func(disable bool) (*pxml.Tree, *integrate.Stats, time.Duration, error) {
		start := time.Now()
		res, stats, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
			Oracle:                        oracle.MovieOracle(oracle.SetGenreTitleYear),
			Schema:                        datagen.MovieDTD(),
			SkipNormalize:                 true,
			DisableComponentFactorization: disable,
		})
		return res, stats, time.Since(start), err
	}
	f, fs, fd, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	m, ms, md, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		FactoredNodes:     f.NodeCount(),
		MonolithicNodes:   m.NodeCount(),
		FactoredWorlds:    f.WorldCount(),
		MonolithicWorlds:  m.WorldCount(),
		FactoredElapsed:   fd,
		MonolithicElapsed: md,
		FactoredLargest:   fs.LargestComponent,
		MonolithicLargest: ms.LargestComponent,
	}, nil
}

// --- evaluator comparison (DESIGN E9) ---

// EvaluatorResult compares the three query evaluation strategies.
type EvaluatorResult struct {
	Query         string
	Worlds        *big.Int
	ExactElapsed  time.Duration
	EnumElapsed   time.Duration
	SampleElapsed time.Duration
	// MaxDeltaEnum is the worst |P_exact − P_enumerate| across answers
	// (should be ≈ 0); MaxDeltaSample the worst sampling error.
	MaxDeltaEnum   float64
	MaxDeltaSample float64
}

// Evaluators runs all three strategies on an enumerable confusing
// integration and reports agreement and latency.
func Evaluators() ([]EvaluatorResult, error) {
	pair := datagen.Confusing(6, 1)
	tree, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle: oracle.MovieOracle(oracle.SetGenreTitleYear),
		Schema: datagen.MovieDTD(),
	})
	if err != nil {
		return nil, err
	}
	var out []EvaluatorResult
	for _, qs := range []string{HorrorQuery, JohnQuery} {
		q := query.MustCompile(qs)
		r := EvaluatorResult{Query: qs, Worlds: tree.WorldCount()}

		start := time.Now()
		exact, err := query.EvalExact(tree, q, 0)
		if err != nil {
			return nil, err
		}
		r.ExactElapsed = time.Since(start)

		start = time.Now()
		enum, err := query.EvalEnumerate(tree, q, 1000000)
		if err != nil {
			return nil, err
		}
		r.EnumElapsed = time.Since(start)

		start = time.Now()
		sampled := query.EvalSample(tree, q, 20000, 7)
		r.SampleElapsed = time.Since(start)

		r.MaxDeltaEnum = maxDelta(exact, enum)
		r.MaxDeltaSample = maxDelta(exact, sampled)
		out = append(out, r)
	}
	return out, nil
}

func maxDelta(a, b []query.Answer) float64 {
	am := map[string]float64{}
	for _, x := range a {
		am[x.Value] = x.P
	}
	worst := 0.0
	seen := map[string]bool{}
	for _, x := range b {
		d := am[x.Value] - x.P
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
		seen[x.Value] = true
	}
	for v, p := range am {
		if !seen[v] && p > worst {
			worst = p
		}
	}
	return worst
}
