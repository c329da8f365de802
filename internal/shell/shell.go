// Package shell implements the interactive demonstration front end — the
// role §VII of the paper describes: load sources, configure the Oracle
// with a few simple knowledge rules, integrate with varying degrees of
// confusion, query the result, and feed answers back. It reads commands
// from any reader and writes to any writer, so it is fully testable and
// works both interactively and scripted.
package shell

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/explain"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/worlds"
	"repro/internal/xmlcodec"
)

// Shell holds the interactive session state.
type Shell struct {
	// db is the session every verb runs on: an in-memory database over
	// the loaded document (nil until one is loaded), or the core of the
	// catalog database selected with use, whose mutations are
	// write-ahead logged.
	db     *core.Database
	schema *dtd.Schema
	rules  []oracle.Rule
	// lastQuery is the text of the last query, the one feedback and
	// explain judge.
	lastQuery string
	// cat is the catalog attached with data, cdb its database selected
	// with use (nil before).
	cat *catalog.Catalog
	cdb *catalog.DB
	out io.Writer
}

// New creates a shell writing to out.
func New(out io.Writer) *Shell {
	return &Shell{out: out}
}

// Run reads commands line by line until EOF or "quit". Errors of
// individual commands are printed, not fatal.
func (s *Shell) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(s.out, `IMPrECISE demonstration shell — type "help" for commands`)
	for {
		fmt.Fprint(s.out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(s.out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := s.Execute(line); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
	}
}

// Execute runs one command line.
func (s *Shell) Execute(line string) error {
	cmd, rest := splitCommand(line)
	switch cmd {
	case "help":
		s.help()
		return nil
	case "load":
		return s.load(rest)
	case "loadxml":
		return s.loadXML(rest)
	case "dtd":
		return s.loadDTD(rest)
	case "dtdinline":
		return s.loadDTDInline(rest)
	case "rules":
		return s.setRules(rest)
	case "integrate":
		return s.integrate(rest)
	case "integratexml":
		return s.integrateXML(rest)
	case "query":
		return s.query(rest)
	case "plan":
		return s.plan(rest)
	case "feedback":
		return s.feedback(rest)
	case "explain":
		return s.explain(rest)
	case "stats":
		return s.stats()
	case "worlds":
		return s.worlds(rest)
	case "normalize":
		return s.normalize()
	case "export":
		return s.export(rest)
	case "save":
		return s.save(rest)
	case "open":
		return s.open(rest)
	case "data":
		return s.data(rest)
	case "dbs":
		return s.listDBs()
	case "use":
		return s.use(rest)
	case "wal":
		return s.walCmd(rest)
	case "promote":
		return s.promote(rest)
	case "demo":
		return s.demo()
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func splitCommand(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i+1:])
}

func (s *Shell) help() {
	fmt.Fprint(s.out, `commands:
  load <file>             load a document (plain or probabilistic XML)
  loadxml <xml>           load a document given inline
  dtd <file>              load DTD knowledge
  dtdinline <dtd text>    load DTD knowledge given inline
  rules <r1,r2,...>       set domain rules: genre, title, year, director
  integrate <file>        integrate another source into the database
  integratexml <xml>      integrate an inline source
  query <xpath>           evaluate a query, ranked answers (the planner
                          picks exact or sample automatically)
  plan <xpath>            evaluate like query, but show the evaluation
                          plan (chosen method, pruning, cost estimates)
  feedback <correct|incorrect> <value>
                          judge an answer of the last query
  explain <value>         trace an answer of the last query to the choice
                          points it depends on
  stats                   size and uncertainty measures
  worlds [n]              list up to n possible worlds (default 5)
  normalize               canonicalize the document
  export <file>           write the document as probabilistic XML
  save <dir>              persist document + schema as a snapshot
  open <dir>              load a snapshot saved with save
  data <dir>              attach a durable multi-database catalog
                          (recovers every database from snapshot + WAL)
  dbs                     list the attached catalog's databases
  use <name>              switch to (or create) a catalog database; from
                          then on mutations are write-ahead logged
  wal [n]                 show the last n ops of the active database's
                          write-ahead log (default 10)
  promote <url> [advertise-url]
                          promote the replica server at url to primary
                          (raises the cluster epoch, fences the old one)
  demo                    run the built-in Figure-2 walkthrough
  quit                    leave
`)
}

func (s *Shell) needTree() error {
	if s.db == nil {
		return fmt.Errorf("no document loaded (use load or loadxml)")
	}
	return nil
}

// openMem opens an in-memory session over t with the shell's DTD and
// rules. Its oracle weights undecided movie pairs by title similarity.
func (s *Shell) openMem(t *pxml.Tree) error {
	db, err := core.Open(t, core.Config{
		Schema:        s.schema,
		Rules:         s.rules,
		OracleOptions: []oracle.Option{oracle.WithEstimator("movie", oracle.TitleEstimator())},
	})
	if err != nil {
		return err
	}
	s.db = db
	return nil
}

// reconfigure re-opens an in-memory session over its current document,
// so that the shell's current DTD and rules drive the next integration. A
// catalog database keeps the configuration its catalog was attached with.
func (s *Shell) reconfigure() error {
	if s.db == nil || s.cdb != nil {
		return nil
	}
	return s.openMem(s.db.Tree())
}

// setDocument installs a full document: it opens the session when there
// is none, and otherwise replaces the session's document (journaled on a
// catalog database, so the load survives a crash like any other
// mutation).
func (s *Shell) setDocument(t *pxml.Tree) error {
	if s.db == nil {
		return s.openMem(t)
	}
	return s.db.ReplaceTree(t)
}

func (s *Shell) load(path string) error {
	if path == "" {
		return fmt.Errorf("usage: load <file>")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := xmlcodec.Decode(f)
	if err != nil {
		return err
	}
	if err := s.setDocument(t); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "loaded %s: %d nodes, %s worlds\n", path, t.NodeCount(), t.WorldCount())
	return nil
}

func (s *Shell) loadXML(src string) error {
	t, err := xmlcodec.DecodeString(src)
	if err != nil {
		return err
	}
	if err := s.setDocument(t); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "loaded inline document: %d nodes, %s worlds\n", t.NodeCount(), t.WorldCount())
	return nil
}

func (s *Shell) loadDTD(path string) error {
	schema, err := dtd.ParseFile(path)
	if err != nil {
		return err
	}
	return s.setSchema(schema)
}

func (s *Shell) loadDTDInline(src string) error {
	schema, err := dtd.ParseString(src)
	if err != nil {
		return err
	}
	return s.setSchema(schema)
}

func (s *Shell) setSchema(schema *dtd.Schema) error {
	s.schema = schema
	if err := s.reconfigure(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "schema loaded: %d element types\n", len(schema.Tags()))
	return nil
}

func (s *Shell) setRules(spec string) error {
	rules, err := oracle.ParseRules(spec)
	if err != nil {
		return err
	}
	s.rules = rules
	if err := s.reconfigure(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "rules: %s\n", specOrNone(spec))
	return nil
}

func specOrNone(spec string) string {
	if spec == "" {
		return "(generic only)"
	}
	return spec
}

func (s *Shell) integrate(path string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	other, err := xmlcodec.Decode(f)
	if err != nil {
		return err
	}
	return s.integrateTree(other)
}

func (s *Shell) integrateXML(src string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	other, err := xmlcodec.DecodeString(src)
	if err != nil {
		return err
	}
	return s.integrateTree(other)
}

func (s *Shell) integrateTree(other *pxml.Tree) error {
	res, stats, err := s.db.IntegrateTreeResult(other)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "integrated: %d nodes, %s worlds, %d undecided pairs, %d matchings pruned by schema\n",
		res.NodeCount(), res.WorldCount(), stats.UndecidedPairs, stats.MatchingsPruned)
	return nil
}

func (s *Shell) query(src string) error {
	_, err := s.runQuery(src, false)
	return err
}

// plan evaluates like query but prints the planner's reasoning first.
func (s *Shell) plan(src string) error {
	_, err := s.runQuery(src, true)
	return err
}

func (s *Shell) runQuery(src string, explain bool) (query.Result, error) {
	if err := s.needTree(); err != nil {
		return query.Result{}, err
	}
	// The session evaluates through its compiled-query and result caches.
	res, err := s.db.Query(src)
	if err != nil {
		return query.Result{}, err
	}
	s.lastQuery = src
	fmt.Fprintf(s.out, "[%s]\n", res.Method)
	if explain && res.Plan != nil {
		pl := res.Plan
		fmt.Fprintf(s.out, "  plan: method=%s pruned=%.0f%% worlds=%s\n",
			pl.Method, pl.PrunedFraction*100, pl.EstimatedWorlds)
		if pl.AnchorTag != "" {
			fmt.Fprintf(s.out, "  anchor: <%s> local-world bound %s\n", pl.AnchorTag, pl.AnchorWorldBound)
		}
		fmt.Fprintf(s.out, "  reason: %s\n", pl.Reason)
	}
	for i, a := range res.Answers {
		if i >= 15 {
			fmt.Fprintf(s.out, "  … %d more\n", len(res.Answers)-i)
			break
		}
		fmt.Fprintf(s.out, "  %5.1f%%  %s\n", a.P*100, a.Value)
	}
	if len(res.Answers) == 0 {
		fmt.Fprintln(s.out, "  (no answers)")
	}
	return res, nil
}

func (s *Shell) feedback(rest string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	if s.lastQuery == "" {
		return fmt.Errorf("no previous query to judge")
	}
	verdict, value := splitCommand(rest)
	if (verdict != "correct" && verdict != "incorrect") || value == "" {
		return fmt.Errorf("usage: feedback <correct|incorrect> <value>")
	}
	ev, err := s.db.Feedback(s.lastQuery, value, verdict == "correct")
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "feedback applied: worlds %s -> %s (prior %.4g)\n",
		ev.WorldsBefore, ev.WorldsAfter, ev.PriorP)
	return nil
}

func (s *Shell) explain(value string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	if s.lastQuery == "" {
		return fmt.Errorf("no previous query to explain")
	}
	if value == "" {
		return fmt.Errorf("usage: explain <value>")
	}
	q, err := query.Compile(s.lastQuery)
	if err != nil {
		return err
	}
	report, err := explain.Answer(s.db.Tree(), q, value)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, report.Format())
	return nil
}

func (s *Shell) stats() error {
	if err := s.needTree(); err != nil {
		return err
	}
	tr := s.db.Tree()
	st := tr.CollectStats()
	fmt.Fprintf(s.out, "nodes: %d logical (%d physical), choice points: %d, worlds: %s, certain: %v\n",
		st.LogicalNodes, st.PhysicalNodes, st.ChoicePoints, st.Worlds, tr.IsCertain())
	if s.cdb != nil {
		ds := s.cdb.Stats()
		fmt.Fprintf(s.out, "durability: db %s, wal seq %d (%d op(s) past snapshot), %d compaction(s)\n",
			s.cdb.Name(), ds.WAL.LastSeq, ds.TailOps, ds.Compactions)
		qs := s.db.QueryStats()
		rc := s.db.ResultCacheStats()
		fmt.Fprintf(s.out, "query exec: %d active, %d started, %d canceled, %d budget aborts, %d collapses\n",
			qs.Active, qs.Started, qs.Canceled, qs.BudgetAborts, rc.Collapses)
	}
	return nil
}

func (s *Shell) worlds(rest string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	max := 5
	if rest != "" {
		v, err := strconv.Atoi(rest)
		if err != nil || v <= 0 {
			return fmt.Errorf("usage: worlds [n]")
		}
		max = v
	}
	n := 0
	worlds.Enumerate(s.db.Tree(), func(w worlds.World) bool {
		n++
		fmt.Fprintf(s.out, "--- world %d (p=%.4g) ---\n", n, w.P)
		for _, e := range w.Elements {
			fmt.Fprint(s.out, pxml.Sketch(e))
		}
		return n < max
	})
	return nil
}

func (s *Shell) normalize() error {
	if err := s.needTree(); err != nil {
		return err
	}
	before, after, err := s.db.Normalize()
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "normalized: %d -> %d nodes\n", before, after)
	return nil
}

func (s *Shell) export(path string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("usage: export <file>")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.db.ExportXML(f, xmlcodec.EncodeOptions{Indent: "  "}); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "written: %s\n", path)
	return nil
}

func (s *Shell) save(dir string) error {
	if err := s.needTree(); err != nil {
		return err
	}
	if dir == "" {
		return fmt.Errorf("usage: save <dir>")
	}
	// The session's histories ride along in the manifest.
	m, err := s.db.SaveSnapshot(dir, "saved from shell")
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved: %s (%d nodes, %s worlds)\n", dir, m.LogicalNodes, m.Worlds)
	return nil
}

func (s *Shell) open(dir string) error {
	if dir == "" {
		return fmt.Errorf("usage: open <dir>")
	}
	if s.cdb != nil {
		// Journaled restore: the selected database swaps to the snapshot.
		snap, err := s.db.LoadSnapshot(dir)
		if err != nil {
			return err
		}
		s.schema = s.db.Schema()
		fmt.Fprintf(s.out, "opened: %s into %s (%d nodes, %s worlds)\n",
			dir, s.cdb.Name(), snap.Manifest.LogicalNodes, snap.Manifest.Worlds)
		return nil
	}
	snap, err := store.Load(dir)
	if err != nil {
		return err
	}
	s.schema = snap.Schema
	if err := s.openMem(snap.Tree); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "opened: %s (%d nodes, %s worlds, saved %s)\n",
		dir, snap.Manifest.LogicalNodes, snap.Manifest.Worlds,
		snap.Manifest.SavedAt.Format("2006-01-02 15:04:05"))
	return nil
}

// data attaches a durable catalog, recovering every database inside it.
// Rules and DTD knowledge set before the attach become the catalog's
// integration configuration.
func (s *Shell) data(dir string) error {
	if dir == "" {
		return fmt.Errorf("usage: data <dir>")
	}
	opts := catalog.Options{Config: core.Config{Schema: s.schema, Rules: s.rules}}
	// Open the new catalog before detaching the old one, so a failed
	// attach (locked or unreadable directory) leaves the session intact.
	// The one exception is re-attaching the same directory, where our
	// own single-process lock forces the close to come first.
	if s.cat != nil && sameDir(s.cat.Dir(), dir) {
		s.detachCatalog()
	}
	cat, err := catalog.Open(dir, opts)
	if err != nil {
		return err
	}
	if s.cat != nil {
		s.detachCatalog()
	}
	s.cat, s.cdb = cat, nil
	names := cat.Names()
	fmt.Fprintf(s.out, "attached: %s (%d database(s))\n", dir, len(names))
	for _, n := range names {
		fmt.Fprintf(s.out, "  %s\n", n)
	}
	fmt.Fprintln(s.out, `select one with "use <name>"`)
	return nil
}

// detachCatalog closes the attached catalog and clears every piece of
// state that belonged to it. A session on one of its databases must not
// survive as an in-memory one: the user would keep mutating it believing
// the writes are journaled.
func (s *Shell) detachCatalog() {
	if s.cdb != nil {
		s.db = nil
	}
	s.cat.Close()
	s.cat, s.cdb = nil, nil
	s.lastQuery = ""
}

// sameDir reports whether two paths name the same directory.
func sameDir(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return a == b
	}
	return aa == bb
}

func (s *Shell) listDBs() error {
	if s.cat == nil {
		return fmt.Errorf("no catalog attached (use data <dir>)")
	}
	dbs := s.cat.List()
	if len(dbs) == 0 {
		fmt.Fprintln(s.out, "(no databases)")
		return nil
	}
	for _, db := range dbs {
		marker := " "
		if db == s.cdb {
			marker = "*"
		}
		c := db.Core()
		fmt.Fprintf(s.out, "%s %-20s %6d nodes  %8s worlds  %d integrations, %d feedback\n",
			marker, db.Name(), c.Tree().NodeCount(), c.WorldCount(),
			c.IntegrationCount(), c.FeedbackCount())
	}
	return nil
}

// use switches the shell onto a catalog database (creating it if
// needed); every mutation from here on is write-ahead logged.
func (s *Shell) use(name string) error {
	if s.cat == nil {
		return fmt.Errorf("no catalog attached (use data <dir>)")
	}
	if name == "" {
		return fmt.Errorf("usage: use <name>")
	}
	db, err := s.cat.Get(name)
	if err != nil {
		db, err = s.cat.Create(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "created database %s\n", name)
	}
	s.cdb, s.db = db, db.Core()
	// The last query belongs to the previous database; judging its
	// answers against this one would condition the wrong document.
	s.lastQuery = ""
	if sch := s.db.Schema(); sch != nil {
		s.schema = sch
	}
	tr := s.db.Tree()
	fmt.Fprintf(s.out, "using %s: %d nodes, %s worlds, %d integrations, %d feedback\n",
		name, tr.NodeCount(), tr.WorldCount(), s.db.IntegrationCount(), s.db.FeedbackCount())
	return nil
}

// walCmd lists the tail of the active catalog database's write-ahead log
// — the records a follower would be shipped next.
// promote asks a running replica server (over HTTP) to take over as
// primary: POST /promote raises the cluster epoch and fences the old
// primary. The shell stays attached to whatever catalog it had — this is
// a cluster-operations command, not a local-state one.
func (s *Shell) promote(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("usage: promote <url> [advertise-url]")
	}
	advertise := ""
	if len(fields) == 2 {
		advertise = fields[1]
	}
	body, err := json.Marshal(map[string]string{"advertise_url": advertise})
	if err != nil {
		return err
	}
	u := strings.TrimRight(fields[0], "/") + "/promote"
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
	fmt.Fprintf(s.out, "promoted: role %s, epoch %d\n", pr.Role, pr.Epoch)
	if pr.OldPrimary != "" {
		fmt.Fprintf(s.out, "fencing old primary %s\n", pr.OldPrimary)
	}
	return nil
}

func (s *Shell) walCmd(rest string) error {
	if s.cdb == nil {
		return fmt.Errorf("no catalog database selected (use data <dir>, then use <name>)")
	}
	n := 10
	if rest != "" {
		v, err := strconv.Atoi(rest)
		if err != nil || v <= 0 {
			return fmt.Errorf("usage: wal [n]")
		}
		n = v
	}
	last := s.cdb.LastSeq()
	var since uint64
	if uint64(n) < last {
		since = last - uint64(n)
	}
	recs, err := s.cdb.OpsSince(since, n)
	if errors.Is(err, catalog.ErrSeqGone) && since < last {
		// The requested window starts below the oldest on-disk record;
		// fall back to the snapshot position (always servable) so the
		// still-available tail is shown rather than nothing.
		snap := s.cdb.Stats().SnapshotSeq
		fmt.Fprintf(s.out, "(records through seq %d are compacted into the snapshot)\n", snap)
		if snap <= since {
			return nil
		}
		recs, err = s.cdb.OpsSince(snap, n)
	}
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Fprintf(s.out, "(log empty at seq %d)\n", last)
		return nil
	}
	for _, rec := range recs {
		detail := ""
		switch rec.Op.Kind {
		case core.OpIntegrate, core.OpBatch:
			detail = fmt.Sprintf("%d source(s)", len(rec.Op.SourceTrees))
		case core.OpFeedback:
			verdict := "incorrect"
			if rec.Op.Correct {
				verdict = "correct"
			}
			detail = fmt.Sprintf("%s %q on %s", verdict, rec.Op.Value, rec.Op.Query)
		case core.OpReplace, core.OpLoad:
			detail = fmt.Sprintf("document of %d node(s)", rec.Op.TreeValue.NodeCount())
		}
		fmt.Fprintf(s.out, "%6d  %-10s %s\n", rec.Seq, rec.Op.Kind, detail)
	}
	return nil
}

// demo replays the paper's Figure-2 walkthrough inside the shell.
func (s *Shell) demo() error {
	script := []string{
		`dtdinline <!ELEMENT addressbook (person*)> <!ELEMENT person (nm, tel?)> <!ELEMENT nm (#PCDATA)> <!ELEMENT tel (#PCDATA)>`,
		`loadxml <addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`,
		`integratexml <addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`,
		`stats`,
		`query //person[nm="John"]/tel`,
		`feedback incorrect 2222`,
		`query //person[nm="John"]/tel`,
		`stats`,
	}
	for _, line := range script {
		fmt.Fprintf(s.out, ">> %s\n", line)
		if err := s.Execute(line); err != nil {
			return err
		}
	}
	return nil
}

// Tags lists the known commands, for completion and tests.
func Tags() []string {
	cmds := []string{
		"help", "load", "loadxml", "dtd", "dtdinline", "rules", "integrate",
		"integratexml", "query", "plan", "feedback", "explain", "stats",
		"worlds", "normalize", "export", "save", "open", "data", "dbs",
		"use", "wal", "demo", "quit",
	}
	sort.Strings(cmds)
	return cmds
}
