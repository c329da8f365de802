// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them side by side with the paper's numbers.
//
// Usage:
//
//	experiments [-exp table1|fig5|typical|q1|q2|quality|ablation|evaluators|all]
//
// Absolute numbers differ from the paper (the original IMDB/MPEG-7
// snapshot is unavailable; the synthetic catalog reproduces the confusion
// structure) — the comparison targets are the orderings, ratios and growth
// shapes, which the internal/experiments tests check.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, fig5, typical, q1, q2, quality, ablation, evaluators, all")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("table1", table1)
	run("fig5", fig5)
	run("typical", typical)
	run("q1", func() error { return queryExp("q1", experiments.HorrorQuery) })
	run("q2", func() error { return queryExp("q2", experiments.JohnQuery) })
	run("quality", qualityExp)
	run("ablation", ablation)
	run("evaluators", evaluators)
}

func table1() error {
	fmt.Println("== Table I: effect of rules on uncertainty ==")
	fmt.Println("   (6 sequels vs 6 sequels, one shared rwo per franchise; raw #nodes)")
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	fmt.Printf("%-36s %12s %12s %10s %22s\n", "Effective rules", "#nodes", "paper", "undecided", "#worlds")
	base := rows[0].Nodes
	for _, r := range rows {
		fmt.Printf("%-36s %12d %12d %10d %22s   (reduction %.1fx)\n",
			r.Set, r.Nodes, r.PaperNodes, r.Undecided, r.Worlds.String(), float64(base)/float64(r.Nodes))
	}
	return nil
}

func fig5() error {
	fmt.Println("== Figure 5: influence of rules on scalability ==")
	fmt.Println("   (6 MPEG-7 movies vs n confusing IMDB movies; raw #nodes, log-scale in the paper)")
	points, err := experiments.Figure5(experiments.DefaultFigure5Ns(), 1)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %22s %22s\n", "n", "only title rule", "title+year rule")
	byN := map[int]map[string]int64{}
	for _, p := range points {
		if byN[p.N] == nil {
			byN[p.N] = map[string]int64{}
		}
		byN[p.N][p.Set.String()] = p.Nodes
	}
	for _, n := range experiments.DefaultFigure5Ns() {
		fmt.Printf("%6d %22d %22d\n", n,
			byN[n]["Movie title rule"], byN[n]["Genre, movie title and year rule"])
	}
	return nil
}

func typical() error {
	fmt.Println("== Typical conditions (§V): 6 vs 60 movies, 2 shared rwos, all rules ==")
	r, err := experiments.Typical()
	if err != nil {
		return err
	}
	fmt.Printf("measured: %d nodes, %s possible worlds, %d undecided matches\n",
		r.Nodes, r.Worlds.String(), r.Undecided)
	fmt.Println("paper:    ~3500 nodes, 4 possible worlds, 2 undecided matches")
	return nil
}

func queryExp(name, q string) error {
	fmt.Printf("== %s: %s ==\n", name, q)
	doc, err := experiments.QueryDocument()
	if err != nil {
		return err
	}
	r, err := experiments.RunQuery(doc, q)
	if err != nil {
		return err
	}
	fmt.Printf("document: %d nodes, %s possible worlds; evaluator: %s\n", r.Nodes, r.Worlds.String(), r.Method)
	for i, a := range r.Answers {
		if i >= 10 {
			fmt.Printf("  … %d more\n", len(r.Answers)-i)
			break
		}
		fmt.Printf("  %5.1f%%  %s\n", a.P*100, a.Value)
	}
	if name == "q1" {
		fmt.Println("paper: 'Jaws' and 'Jaws 2' at 97% each (33856-world document)")
	} else {
		fmt.Println("paper: 100% Die Hard: With a Vengeance / 96% Mission: Impossible II / 21% Mission: Impossible")
	}
	return nil
}

func qualityExp() error {
	fmt.Println("== Answer quality (§VII, measures of ref [13]) ==")
	rows, err := experiments.Quality()
	if err != nil {
		return err
	}
	fmt.Printf("%-36s %-40s %9s %9s %9s %6s\n", "rules", "query", "precision", "recall", "F1", "AP")
	for _, r := range rows {
		q := r.Query
		if len(q) > 40 {
			q = q[:37] + "..."
		}
		fmt.Printf("%-36s %-40s %9.3f %9.3f %9.3f %6.3f\n",
			r.Set, q, r.Report.Precision, r.Report.Recall, r.Report.F1, r.Report.AveragePrecision)
	}
	return nil
}

func ablation() error {
	fmt.Println("== Ablation: independent-component factorization ==")
	r, err := experiments.Ablation()
	if err != nil {
		return err
	}
	fmt.Printf("factored:   %8d nodes, %s worlds, largest component %d edges, %s\n",
		r.FactoredNodes, r.FactoredWorlds.String(), r.FactoredLargest, r.FactoredElapsed.Round(1000))
	fmt.Printf("monolithic: %8d nodes, %s worlds, largest component %d edges, %s\n",
		r.MonolithicNodes, r.MonolithicWorlds.String(), r.MonolithicLargest, r.MonolithicElapsed.Round(1000))
	fmt.Println("same world distribution; factorization keeps representation size additive across groups")
	return nil
}

func evaluators() error {
	fmt.Println("== Evaluator comparison: exact vs enumerate vs sample ==")
	rows, err := experiments.Evaluators()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%s  (%s worlds)\n", r.Query, r.Worlds.String())
		fmt.Printf("  exact %-12s enumerate %-12s sample %-12s  Δenum %.2e  Δsample %.3f\n",
			r.ExactElapsed.Round(1000), r.EnumElapsed.Round(1000), r.SampleElapsed.Round(1000),
			r.MaxDeltaEnum, r.MaxDeltaSample)
	}
	return nil
}

var _ = os.Exit
