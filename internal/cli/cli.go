// Package cli implements the imprecise command-line tool. It lives in a
// package of its own (rather than package main) so that its behaviour is
// unit-testable.
package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/explain"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shell"
	"repro/internal/worlds"
	"repro/internal/xmlcodec"
)

// Run executes one CLI invocation, writing human output to w.
func Run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New("missing subcommand: integrate | query | stats | worlds | feedback | generate | serve | db | replication | promote")
	}
	switch args[0] {
	case "integrate":
		return runIntegrate(args[1:], w)
	case "db":
		return runDBCmd(args[1:], w)
	case "replication":
		return runReplication(args[1:], w)
	case "promote":
		return runPromote(args[1:], w)
	case "query":
		return runQuery(args[1:], w)
	case "stats":
		return runStats(args[1:], w)
	case "worlds":
		return runWorlds(args[1:], w)
	case "feedback":
		return runFeedback(args[1:], w)
	case "explain":
		return runExplain(args[1:], w)
	case "generate":
		return runGenerate(args[1:], w)
	case "serve":
		return runServe(args[1:], w)
	case "shell":
		return shell.New(w).Run(os.Stdin)
	case "help", "-h", "--help":
		fmt.Fprintln(w, "subcommands: integrate, query, explain, stats, worlds, feedback, generate, serve, db, replication, promote, shell")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func loadTree(path string) (*pxml.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xmlcodec.Decode(f)
}

func saveTree(path string, t *pxml.Tree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return xmlcodec.Encode(f, t, xmlcodec.EncodeOptions{Indent: "  "})
}

// knowledge reads the -dtd file (when given) and parses the -rules spec.
func knowledge(dtdPath, ruleSpec string) (*dtd.Schema, []oracle.Rule, error) {
	var schema *dtd.Schema
	if dtdPath != "" {
		var err error
		if schema, err = dtd.ParseFile(dtdPath); err != nil {
			return nil, nil, err
		}
	}
	rules, err := oracle.ParseRules(ruleSpec)
	return schema, rules, err
}

func runIntegrate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("integrate", flag.ContinueOnError)
	aPath := fs.String("a", "", "source A document (or pass ≥2 positional files)")
	bPath := fs.String("b", "", "source B document (or pass ≥2 positional files)")
	dtdPath := fs.String("dtd", "", "DTD file with cardinality knowledge")
	ruleSpec := fs.String("rules", "", "comma-separated domain rules: genre,title,year,director")
	outPath := fs.String("o", "", "write the integrated document here")
	raw := fs.Bool("raw", false, "skip normalization (paper-style raw sizes)")
	truncate := fs.Bool("truncate", false, "truncate instead of failing on possibility explosion")
	maxMatchings := fs.Int("max-matchings", 0, "matching budget per candidate component (0 = default)")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Two source forms: the classic -a/-b pair, or ≥2 positional files
	// integrated left-to-right as one batch (imprecise integrate a.xml
	// b.xml c.xml ...).
	var paths []string
	switch files := fs.Args(); {
	case *aPath != "" && *bPath != "":
		if len(files) > 0 {
			return errors.New("integrate: use either -a/-b or positional source files, not both")
		}
		paths = []string{*aPath, *bPath}
	case *aPath == "" && *bPath == "" && len(files) >= 2:
		paths = files
	default:
		return errors.New("integrate: provide -a and -b, or at least two source files (imprecise integrate a.xml b.xml c.xml ...)")
	}
	schema, rules, err := knowledge(*dtdPath, *ruleSpec)
	if err != nil {
		return err
	}
	cfg := integrate.Config{
		Oracle:                   oracle.New(rules, oracle.WithEstimator("movie", oracle.TitleEstimator())),
		Schema:                   schema,
		SkipNormalize:            *raw,
		TruncateOnExplosion:      *truncate,
		MaxMatchingsPerComponent: *maxMatchings,
	}
	res, err := loadTree(paths[0])
	if err != nil {
		return err
	}
	var stats integrate.Stats
	for step, path := range paths[1:] {
		next, err := loadTree(path)
		if err != nil {
			return err
		}
		merged, st, err := integrate.Integrate(res, next, cfg)
		if err != nil {
			return fmt.Errorf("integrate: %s: %w", path, err)
		}
		res = merged
		stats.Merge(*st)
		if len(paths) > 2 {
			fmt.Fprintf(w, "integrated:      %s (%d/%d), %d nodes, %s worlds\n",
				path, step+1, len(paths)-1, res.NodeCount(), res.WorldCount())
		}
	}
	s := res.CollectStats()
	fmt.Fprintf(w, "nodes:           %d (physical %d)\n", s.LogicalNodes, s.PhysicalNodes)
	fmt.Fprintf(w, "possible worlds: %s\n", s.Worlds)
	fmt.Fprintf(w, "choice points:   %d\n", s.ChoicePoints)
	fmt.Fprintf(w, "oracle:          %d pairs, %d must, %d cannot, %d undecided\n",
		stats.OracleCalls, stats.MustPairs, stats.CannotPairs, stats.UndecidedPairs)
	fmt.Fprintf(w, "matchings:       %d enumerated, %d pruned by schema\n",
		stats.MatchingsEnumerated, stats.MatchingsPruned)
	if stats.TruncatedComponents > 0 {
		fmt.Fprintf(w, "WARNING: %d components truncated by budget\n", stats.TruncatedComponents)
	}
	if *outPath != "" {
		if err := saveTree(*outPath, res); err != nil {
			return err
		}
		fmt.Fprintf(w, "written:         %s\n", *outPath)
	}
	return nil
}

func runQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dbPath := fs.String("db", "", "document to query (required)")
	qSrc := fs.String("q", "", "query (required)")
	top := fs.Int("top", 0, "show only the top N answers")
	samples := fs.Int("samples", 0, fmt.Sprintf("Monte-Carlo samples when sampling is used (at most %d)", query.MaxSamples))
	seed := fs.Int64("seed", 1, "sampling seed")
	method := fs.String("method", "auto", "evaluation method: auto | exact | enumerate | sample")
	explainPlan := fs.Bool("explain", false, "print the evaluation plan")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *qSrc == "" {
		return errors.New("query: -db and -q are required")
	}
	if *top < 0 {
		return fmt.Errorf("query: bad -top %d (want >= 0)", *top)
	}
	opts := query.Options{
		Method:  query.Method(*method),
		Samples: *samples,
		Seed:    query.SeedPtr(*seed),
	}
	if err := opts.Validate(); err != nil {
		return err // already prefixed "query: invalid options: …"
	}
	t, err := loadTree(*dbPath)
	if err != nil {
		return err
	}
	q, err := query.Compile(*qSrc)
	if err != nil {
		return err
	}
	res, err := query.Eval(t, q, opts)
	if err != nil {
		return err
	}
	answers := res.Answers
	if *top > 0 {
		answers = res.Top(*top)
	}
	fmt.Fprintf(w, "method: %s\n", res.Method)
	if *explainPlan && res.Plan != nil {
		printPlan(w, res.Plan)
	}
	for _, a := range answers {
		fmt.Fprintf(w, "%6.1f%%  %s\n", a.P*100, a.Value)
	}
	if len(answers) == 0 {
		fmt.Fprintln(w, "(no answers)")
	}
	return nil
}

func printPlan(w io.Writer, pl *query.Plan) {
	fmt.Fprintf(w, "plan:   method=%s pruned=%.0f%% worlds=%s\n",
		pl.Method, pl.PrunedFraction*100, pl.EstimatedWorlds)
	if pl.BudgetExhausted {
		fmt.Fprintf(w, "        budget exhausted before completion\n")
	}
	if pl.AnchorTag != "" {
		fmt.Fprintf(w, "        anchor=<%s> bound=%s\n", pl.AnchorTag, orDash(pl.AnchorWorldBound))
	}
	fmt.Fprintf(w, "        reason: %s\n", pl.Reason)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func runExplain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	dbPath := fs.String("db", "", "document (required)")
	qSrc := fs.String("q", "", "query (required)")
	value := fs.String("value", "", "the answer to explain (required)")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *qSrc == "" || *value == "" {
		return errors.New("explain: -db, -q and -value are required")
	}
	t, err := loadTree(*dbPath)
	if err != nil {
		return err
	}
	q, err := query.Compile(*qSrc)
	if err != nil {
		return err
	}
	report, err := explain.Answer(t, q, *value)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Format())
	return nil
}

func runStats(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dbPath := fs.String("db", "", "document (required)")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return errors.New("stats: -db is required")
	}
	t, err := loadTree(*dbPath)
	if err != nil {
		return err
	}
	s := t.CollectStats()
	fmt.Fprintf(w, "logical nodes:   %d (prob %d, poss %d, elem %d)\n",
		s.LogicalNodes, s.LogicalProb, s.LogicalPoss, s.LogicalElem)
	fmt.Fprintf(w, "physical nodes:  %d\n", s.PhysicalNodes)
	fmt.Fprintf(w, "possible worlds: %s\n", s.Worlds)
	fmt.Fprintf(w, "choice points:   %d\n", s.ChoicePoints)
	fmt.Fprintf(w, "max depth:       %d\n", s.MaxDepth)
	fmt.Fprintf(w, "certain:         %v\n", t.IsCertain())
	return nil
}

func runWorlds(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("worlds", flag.ContinueOnError)
	dbPath := fs.String("db", "", "document (required)")
	max := fs.Int("max", 20, "maximum worlds to list")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return errors.New("worlds: -db is required")
	}
	t, err := loadTree(*dbPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "possible worlds: %s\n", t.WorldCount())
	n := 0
	worlds.Enumerate(t, func(wd worlds.World) bool {
		n++
		fmt.Fprintf(w, "--- world %d (p=%.6g) ---\n", n, wd.P)
		for _, e := range wd.Elements {
			fmt.Fprint(w, pxml.Sketch(e))
		}
		return n < *max
	})
	if !t.WorldCount().IsInt64() || int64(n) < t.WorldCount().Int64() {
		fmt.Fprintf(w, "... (%d shown)\n", n)
	}
	return nil
}

func runFeedback(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("feedback", flag.ContinueOnError)
	dbPath := fs.String("db", "", "document (required)")
	qSrc := fs.String("q", "", "query the answer came from (required)")
	value := fs.String("value", "", "the judged answer value (required)")
	judgment := fs.String("judgment", "incorrect", "correct | incorrect")
	outPath := fs.String("o", "", "write the conditioned document here")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *qSrc == "" || *value == "" {
		return errors.New("feedback: -db, -q and -value are required")
	}
	t, err := loadTree(*dbPath)
	if err != nil {
		return err
	}
	q, err := query.Compile(*qSrc)
	if err != nil {
		return err
	}
	var j feedback.Judgment
	switch *judgment {
	case "correct":
		j = feedback.Correct
	case "incorrect":
		j = feedback.Incorrect
	default:
		return fmt.Errorf("feedback: unknown judgment %q", *judgment)
	}
	session := feedback.NewSession(t, feedback.Options{})
	ev, err := session.Apply(q, *value, j)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "prior probability of feedback: %.6g\n", ev.PriorP)
	fmt.Fprintf(w, "possible worlds: %s -> %s\n", ev.WorldsBefore, ev.WorldsAfter)
	if *outPath != "" {
		if err := saveTree(*outPath, session.Tree()); err != nil {
			return err
		}
		fmt.Fprintf(w, "written: %s\n", *outPath)
	}
	return nil
}

// serveListen is swapped by tests to bind an ephemeral port and stop the
// server once it is up.
var serveListen = net.Listen

func runServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := fs.String("data", "", "durable multi-database data directory (required; recovers on start)")
	replicaOf := fs.String("replica-of", "", "primary base URL to follow as a read replica (read verbs served locally, writes 403 to the primary)")
	walSegBytes := fs.Int64("wal-segment-bytes", 0, "write-ahead segment rotation threshold in bytes (0 = default 4MiB)")
	compactEvery := fs.Int("compact-every", 0, "journaled ops between background compactions (0 = default 64, negative disables)")
	rootTag := fs.String("root", "db", "root element tag of newly created databases")
	dtdPath := fs.String("dtd", "", "DTD file with cardinality knowledge")
	ruleSpec := fs.String("rules", "", "comma-separated domain rules: genre,title,year,director")
	queryBudget := fs.Duration("query-budget", 0, "per-query wall-clock budget (0 = unlimited; exhausted queries return 408 with budget_exhausted)")
	maxBody := fs.Int64("max-body", 0, "request body limit in bytes (0 = default 8MiB)")
	quiet := fs.Bool("quiet", false, "disable the per-request log")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	schema, rules, err := knowledge(*dtdPath, *ruleSpec)
	if err != nil {
		return err
	}
	if *queryBudget < 0 {
		return errors.New("serve: -query-budget must be >= 0")
	}
	if *dataDir == "" {
		return errors.New("serve: -data is required (the durable catalog directory whose databases it serves under /dbs/{name})")
	}
	cfg := core.Config{
		Schema: schema,
		Rules:  rules,
		Query:  query.Options{TimeBudget: *queryBudget},
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(w, "imprecise: ", log.LstdFlags)
	}
	opts := server.Options{MaxBodyBytes: *maxBody, Logger: logger}
	var (
		srv    *server.Server
		banner string
	)
	catOpts := catalog.Options{
		Config:       cfg,
		RootTag:      *rootTag,
		SegmentBytes: *walSegBytes,
		CompactEvery: *compactEvery,
		Logger:       logger,
	}
	if *replicaOf != "" {
		// Read-replica mode: a follower catalog under -data tails the
		// primary's write-ahead logs; reads are local, writes are 403ed
		// to the primary. -dtd/-rules must match the primary's, since
		// shipped ops are re-executed locally.
		rep, err := replica.Open(*dataDir, replica.Options{
			Primary: *replicaOf,
			Catalog: catOpts,
			Logger:  logger,
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		srv = server.NewReplica(rep, opts)
		banner = fmt.Sprintf("read replica of %s in %s", rep.Primary(), *dataDir)
	} else {
		// Every database recovers (snapshot + WAL tail) before the
		// listener opens.
		cat, err := catalog.Open(*dataDir, catOpts)
		if err != nil {
			return err
		}
		defer cat.Close()
		srv = server.NewCatalog(cat, opts)
		banner = fmt.Sprintf("%d database(s) in %s", len(cat.Names()), *dataDir)
	}
	ln, err := serveListen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(w, "serving IMPrECISE on http://%s (%s)\n", ln.Addr(), banner)
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// runDBCmd manages a durable catalog from the command line:
//
//	imprecise db -data DIR create NAME
//	imprecise db -data DIR list
//	imprecise db -data DIR stats NAME
//	imprecise db -data DIR drop NAME
//
// `list` and `stats` answer from the snapshot manifests alone by
// default: O(N) manifest reads, no document decode, no WAL replay, no
// catalog lock — they work even while a server holds the directory, and
// even when a document payload is corrupt. The numbers reflect the last
// compaction; ops journaled since show only as WAL bytes. Pass -full to
// run complete recovery instead (exact live numbers; requires the
// directory to be unlocked and healthy, and -dtd/-rules matching the
// server's, or replay of integrate ops may decide matches differently).
// To keep that risk off disk, the command never compacts: it leaves
// snapshots and logs exactly as it found them.
func runDBCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("db", flag.ContinueOnError)
	dataDir := fs.String("data", "", "catalog data directory (required)")
	rootTag := fs.String("root", "db", "root element tag for newly created databases")
	dtdPath := fs.String("dtd", "", "DTD file with cardinality knowledge (match the server's; with -full)")
	ruleSpec := fs.String("rules", "", "comma-separated domain rules (match the server's; with -full)")
	full := fs.Bool("full", false, "list/stats: run full recovery instead of the manifest-only quick path")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("db: -data is required")
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("db: verb required: create | list | drop | stats")
	}
	needName := func() (string, error) {
		if len(rest) != 2 {
			return "", fmt.Errorf("db %s: exactly one database name required", rest[0])
		}
		return rest[1], nil
	}
	if !*full {
		switch rest[0] {
		case "list":
			return quickList(*dataDir, w)
		case "stats":
			name, err := needName()
			if err != nil {
				return err
			}
			return quickStats(*dataDir, name, w)
		}
	}
	schema, rules, err := knowledge(*dtdPath, *ruleSpec)
	if err != nil {
		return err
	}
	cat, err := catalog.Open(*dataDir, catalog.Options{
		Config:  core.Config{Schema: schema, Rules: rules},
		RootTag: *rootTag,
		// Never rewrite state from an inspection command: no background
		// and no close-time compaction.
		CompactEvery: -1,
	})
	if err != nil {
		return err
	}
	defer cat.Close()
	switch rest[0] {
	case "create":
		name, err := needName()
		if err != nil {
			return err
		}
		if _, err := cat.Create(name); err != nil {
			return err
		}
		fmt.Fprintf(w, "created: %s\n", name)
		return nil
	case "list":
		dbs := cat.List()
		if len(dbs) == 0 {
			fmt.Fprintln(w, "(no databases)")
			return nil
		}
		for _, db := range dbs {
			c := db.Core()
			st := db.Stats()
			fmt.Fprintf(w, "%-20s %6d nodes  %8s worlds  %3d integrations  %3d feedback  wal seq %d (%d tail)\n",
				db.Name(), c.Tree().NodeCount(), c.WorldCount(), c.IntegrationCount(),
				c.FeedbackCount(), st.WAL.LastSeq, st.TailOps)
		}
		return nil
	case "stats":
		name, err := needName()
		if err != nil {
			return err
		}
		db, err := cat.Get(name)
		if err != nil {
			return err
		}
		c := db.Core()
		st := db.Stats()
		s := c.Stats()
		fmt.Fprintf(w, "database:        %s\n", db.Name())
		fmt.Fprintf(w, "logical nodes:   %d (physical %d)\n", s.LogicalNodes, s.PhysicalNodes)
		fmt.Fprintf(w, "possible worlds: %s\n", s.Worlds)
		fmt.Fprintf(w, "integrations:    %d\n", c.IntegrationCount())
		fmt.Fprintf(w, "feedback events: %d\n", c.FeedbackCount())
		fmt.Fprintf(w, "wal:             seq %d, %d segment(s), %d bytes, %d op(s) past snapshot\n",
			st.WAL.LastSeq, st.WAL.Segments, st.WAL.SizeBytes, st.TailOps)
		fmt.Fprintf(w, "snapshot:        seq %d, %d compaction(s), %d op(s) recovered at open\n",
			st.SnapshotSeq, st.Compactions, st.RecoveredOps)
		qs := c.QueryStats()
		rc := c.ResultCacheStats()
		fmt.Fprintf(w, "query exec:      %d active, %d started, %d canceled, %d budget abort(s), %d singleflight collapse(s)\n",
			qs.Active, qs.Started, qs.Canceled, qs.BudgetAborts, rc.Collapses)
		fmt.Fprintf(w, "result cache:    %d/%d entr%s, %d hit(s), %d miss(es)\n",
			rc.Size, rc.Capacity, plural(rc.Size, "y", "ies"), rc.Hits, rc.Misses)
		return nil
	case "drop":
		name, err := needName()
		if err != nil {
			return err
		}
		if err := cat.Drop(name); err != nil {
			return err
		}
		fmt.Fprintf(w, "dropped: %s\n", name)
		return nil
	default:
		return fmt.Errorf("db: unknown verb %q (create | list | drop | stats)", rest[0])
	}
}

// quickList prints the manifest-only listing: one line per database
// from N manifest reads, never a snapshot decode or WAL replay.
func quickList(dataDir string, w io.Writer) error {
	stats, err := catalog.QuickStats(dataDir)
	if err != nil {
		return err
	}
	if len(stats) == 0 {
		fmt.Fprintln(w, "(no databases)")
		return nil
	}
	for _, qs := range stats {
		switch {
		case !qs.HasSnapshot:
			fmt.Fprintf(w, "%-20s (no snapshot yet)  wal %d segment(s), %d bytes\n",
				qs.Name, qs.WALSegments, qs.WALBytes)
		case qs.FormatVersion == 0:
			fmt.Fprintf(w, "%-20s (manifest unreadable)  wal %d segment(s), %d bytes\n",
				qs.Name, qs.WALSegments, qs.WALBytes)
		default:
			fmt.Fprintf(w, "%-20s %6d nodes  %8s worlds  %3d integrations  %3d feedback  snapshot seq %d (v%d)  wal %d bytes\n",
				qs.Name, qs.LogicalNodes, qs.Worlds, qs.Integrations,
				qs.Feedback, qs.SnapshotSeq, qs.FormatVersion, qs.WALBytes)
		}
		if qs.Unloadable != "" {
			fmt.Fprintf(w, "%-20s UNLOADABLE: %s\n", "", qs.Unloadable)
		}
	}
	return nil
}

// quickStats prints one database's manifest-only stats.
func quickStats(dataDir, name string, w io.Writer) error {
	qs, err := catalog.ReadQuickStat(dataDir, name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "database:        %s\n", qs.Name)
	switch {
	case !qs.HasSnapshot:
		fmt.Fprintln(w, "snapshot:        (none yet)")
	case qs.FormatVersion == 0:
		fmt.Fprintln(w, "snapshot:        (manifest unreadable)")
	default:
		fmt.Fprintf(w, "logical nodes:   %d\n", qs.LogicalNodes)
		fmt.Fprintf(w, "possible worlds: %s\n", qs.Worlds)
		fmt.Fprintf(w, "integrations:    %d\n", qs.Integrations)
		fmt.Fprintf(w, "feedback events: %d\n", qs.Feedback)
		fmt.Fprintf(w, "snapshot:        seq %d, format v%d, epoch %d, saved %s\n",
			qs.SnapshotSeq, qs.FormatVersion, qs.Epoch, qs.SavedAt.Format(time.RFC3339))
	}
	if qs.Unloadable != "" {
		fmt.Fprintf(w, "UNLOADABLE:      %s\n", qs.Unloadable)
	}
	fmt.Fprintf(w, "wal:             %d segment(s), %d bytes past snapshot\n", qs.WALSegments, qs.WALBytes)
	fmt.Fprintln(w, "(manifest-only view; pass -full for live recovery numbers)")
	return nil
}

// plural picks the singular or plural suffix for a count.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// replicationStatusBody decodes the /replication response of either
// role: primary rows carry last_seq/digest, replica rows the follower
// lag and sync counters.
type replicationStatusBody struct {
	Role      string `json:"role"`
	Epoch     uint64 `json:"epoch"`
	Primary   string `json:"primary"`
	Connected bool   `json:"connected"`
	LastError string `json:"last_error"`
	Databases []struct {
		Name               string `json:"name"`
		LastSeq            uint64 `json:"last_seq"`
		Digest             string `json:"digest"`
		SnapshotSeq        uint64 `json:"snapshot_seq"`
		TailOps            uint64 `json:"tail_ops"`
		LastApplied        uint64 `json:"last_applied"`
		PrimarySeq         uint64 `json:"primary_seq"`
		Lag                uint64 `json:"lag"`
		CaughtUp           bool   `json:"caught_up"`
		OpsApplied         int64  `json:"ops_applied"`
		SnapshotsInstalled int64  `json:"snapshots_installed"`
		Divergences        int64  `json:"divergences"`
		LastError          string `json:"last_error"`
	} `json:"databases"`
}

// runReplication implements `imprecise replication status [-url U]`: it
// asks a running server for its /replication report and prints it.
func runReplication(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("replication", flag.ContinueOnError)
	baseURL := fs.String("url", "http://localhost:8080", "base URL of the server to inspect")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 || rest[0] != "status" {
		return errors.New("replication: verb required: status (imprecise replication status -url http://host:port)")
	}
	// Flags are accepted on either side of the verb (flag.Parse stops at
	// the first non-flag argument, and `replication status -url …` is the
	// natural order).
	if err := fs.Parse(rest[1:]); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("replication status: unexpected arguments %q", fs.Args())
	}
	u := strings.TrimRight(*baseURL, "/") + "/replication"
	resp, err := http.Get(u)
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replication: GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	var st replicationStatusBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("replication: decoding status: %w", err)
	}
	fmt.Fprintf(w, "role:      %s\n", st.Role)
	fmt.Fprintf(w, "epoch:     %d\n", st.Epoch)
	switch st.Role {
	case "replica":
		fmt.Fprintf(w, "primary:   %s\n", st.Primary)
		fmt.Fprintf(w, "connected: %v\n", st.Connected)
		if st.LastError != "" {
			fmt.Fprintf(w, "last err:  %s\n", st.LastError)
		}
		for _, db := range st.Databases {
			state := "catching up"
			if db.CaughtUp {
				state = "caught up"
			}
			fmt.Fprintf(w, "%-20s applied %6d / primary %6d  lag %4d  %s  (%d op(s) streamed, %d snapshot(s), %d divergence(s))\n",
				db.Name, db.LastApplied, db.PrimarySeq, db.Lag, state,
				db.OpsApplied, db.SnapshotsInstalled, db.Divergences)
			if db.LastError != "" {
				fmt.Fprintf(w, "%-20s   error: %s\n", "", db.LastError)
			}
		}
	default:
		// Primary-style rows; a demoted ex-primary additionally discloses
		// where writes moved.
		if st.Primary != "" {
			fmt.Fprintf(w, "primary:   %s\n", st.Primary)
		}
		for _, db := range st.Databases {
			fmt.Fprintf(w, "%-20s seq %6d  digest %s  snapshot seq %6d  (%d tail op(s))\n",
				db.Name, db.LastSeq, db.Digest, db.SnapshotSeq, db.TailOps)
		}
	}
	if len(st.Databases) == 0 {
		fmt.Fprintln(w, "(no databases)")
	}
	return nil
}

// runPromote implements `imprecise promote -url U [-advertise A]`: it
// asks a running replica server to take over as primary (POST /promote)
// and prints the new epoch and the node being fenced.
func runPromote(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("promote", flag.ContinueOnError)
	baseURL := fs.String("url", "http://localhost:8080", "base URL of the replica server to promote")
	advertise := fs.String("advertise", "", "URL the promoted node should advertise to the cluster (default: its own address)")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("promote: unexpected arguments %q", fs.Args())
	}
	body, err := json.Marshal(map[string]string{"advertise_url": *advertise})
	if err != nil {
		return err
	}
	u := strings.TrimRight(*baseURL, "/") + "/promote"
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("promote: POST %s: %s: %s", u, resp.Status, strings.TrimSpace(string(raw)))
	}
	var pr struct {
		Role       string `json:"role"`
		Epoch      uint64 `json:"epoch"`
		OldPrimary string `json:"old_primary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return fmt.Errorf("promote: decoding response: %w", err)
	}
	fmt.Fprintf(w, "role:  %s\n", pr.Role)
	fmt.Fprintf(w, "epoch: %d\n", pr.Epoch)
	if pr.OldPrimary != "" {
		fmt.Fprintf(w, "fencing old primary %s\n", pr.OldPrimary)
	}
	return nil
}

func runGenerate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	scenario := fs.String("scenario", "table1", "table1 | confusing | typical")
	n := fs.Int("n", 12, "IMDB-source size (confusing/typical)")
	nA := fs.Int("na", 6, "MPEG-7-source size (typical)")
	shared := fs.Int("shared", 2, "shared rwos (typical)")
	seed := fs.Int64("seed", 1, "generation seed")
	dir := fs.String("dir", ".", "output directory")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var pair datagen.Pair
	switch *scenario {
	case "table1":
		pair = datagen.TableISources()
	case "confusing":
		pair = datagen.Confusing(*n, *seed)
	case "typical":
		pair = datagen.Typical(*nA, *n, *shared, *seed)
	default:
		return fmt.Errorf("generate: unknown scenario %q", *scenario)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	files := map[string]*pxml.Tree{
		"a.xml":     pair.A.Tree,
		"b.xml":     pair.B.Tree,
		"truth.xml": pair.Truth,
	}
	for name, t := range files {
		path := filepath.Join(*dir, name)
		if err := saveTree(path, t); err != nil {
			return err
		}
		fmt.Fprintf(w, "written: %s\n", path)
	}
	dtdPath := filepath.Join(*dir, "movie.dtd")
	if err := os.WriteFile(dtdPath, []byte(datagen.MovieDTD().String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "written: %s\n", dtdPath)
	fmt.Fprintf(w, "shared rwos: %s\n", strings.Join(pair.SharedIDs, ", "))
	return nil
}
