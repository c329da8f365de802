// Package imprecise is a from-scratch Go implementation of IMPrECISE —
// "good is good enough" probabilistic XML data integration (de Keijzer &
// van Keulen, ICDE 2008).
//
// IMPrECISE integrates XML documents near-automatically: wherever it
// cannot decide with certainty whether two elements refer to the same
// real-world object, it keeps every possibility in one compact
// probabilistic XML document, prunes nonsense possibilities with simple
// knowledge rules ("The Oracle") and schema (DTD) knowledge, and answers
// queries with ranked, probability-annotated results over the induced
// possible worlds. User feedback on answers removes impossible worlds and
// incrementally sharpens the integration.
//
// # Quick start
//
//	db, _ := imprecise.OpenXML(strings.NewReader(sourceA), imprecise.Config{
//		Schema: imprecise.MustParseDTD(`<!ELEMENT person (nm, tel?)>`),
//	})
//	db.IntegrateXML(strings.NewReader(sourceB))
//	res, _ := db.Query(`//person[nm="John"]/tel`)
//	for _, a := range res.Answers {
//		fmt.Printf("%3.0f%% %s\n", a.P*100, a.Value)
//	}
//
// The package re-exports the stable surface of the internal subsystems;
// see the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md for the architecture.
package imprecise

import (
	"io"
	"net/http"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/explain"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xmlcodec"
)

// Database is a probabilistic XML database with near-automatic
// integration (see core.Database).
type Database = core.Database

// Config configures a Database.
type Config = core.Config

// Open creates a database over an initial probabilistic document.
func Open(doc *Tree, cfg Config) (*Database, error) { return core.Open(doc, cfg) }

// OpenXML creates a database from XML text (plain, or carrying the
// probabilistic markers <_prob> and <_poss p="…">).
func OpenXML(r io.Reader, cfg Config) (*Database, error) { return core.OpenXML(r, cfg) }

// OpenXMLString is OpenXML over a string.
func OpenXMLString(src string, cfg Config) (*Database, error) {
	return core.OpenXML(strings.NewReader(src), cfg)
}

// --- probabilistic XML model ---

// Tree is a probabilistic XML document.
type Tree = pxml.Tree

// Node is a node of a probabilistic XML document.
type Node = pxml.Node

// TreeStats summarizes document size (logical/physical nodes, worlds).
type TreeStats = pxml.Stats

// CertainText returns the text of an element's unique certainly-present
// child with the given tag ("" if absent or uncertain) — the usual way
// rules inspect fields.
func CertainText(elem *Node, tag string) string { return pxml.CertainText(elem, tag) }

// CertainTexts returns the texts of all certainly-present children with
// the given tag, in document order.
func CertainTexts(elem *Node, tag string) []string { return pxml.CertainTexts(elem, tag) }

// ElementChildren returns an element's certainly-present child elements
// (children under genuine choice points are skipped).
func ElementChildren(elem *Node) []*Node { return pxml.ElementChildren(elem) }

// DecodeXML parses XML text into a probabilistic document.
func DecodeXML(r io.Reader) (*Tree, error) { return xmlcodec.Decode(r) }

// DecodeXMLString is DecodeXML over a string.
func DecodeXMLString(src string) (*Tree, error) { return xmlcodec.DecodeString(src) }

// EncodeOptions control XML serialization of probabilistic documents.
type EncodeOptions = xmlcodec.EncodeOptions

// EncodeXML writes a probabilistic document as XML with markers.
func EncodeXML(w io.Writer, t *Tree, opts EncodeOptions) error {
	return xmlcodec.Encode(w, t, opts)
}

// --- schema knowledge ---

// Schema is DTD-style cardinality knowledge used to prune impossible
// possibilities during integration.
type Schema = dtd.Schema

// ParseDTD parses <!ELEMENT …> declarations.
func ParseDTD(src string) (*Schema, error) { return dtd.ParseString(src) }

// MustParseDTD is ParseDTD that panics on error.
func MustParseDTD(src string) *Schema { return dtd.MustParse(src) }

// --- the Oracle ---

// Rule is an Oracle knowledge rule deciding whether two elements refer to
// the same real-world object.
type Rule = oracle.Rule

// Verdict is a rule's or the Oracle's decision for an element pair.
type Verdict = oracle.Verdict

// Decision classifies an element pair.
type Decision = oracle.Decision

// Decision values for rule verdicts.
const (
	DecisionUnknown     = oracle.Unknown
	DecisionMustMatch   = oracle.MustMatch
	DecisionCannotMatch = oracle.CannotMatch
)

// RuleSet names the rule bundles of the paper's Table I.
type RuleSet = oracle.RuleSet

// The rule-set constants mirror the rows of the paper's Table I.
const (
	SetNone           = oracle.SetNone
	SetGenre          = oracle.SetGenre
	SetTitle          = oracle.SetTitle
	SetGenreTitle     = oracle.SetGenreTitle
	SetGenreTitleYear = oracle.SetGenreTitleYear
	SetFull           = oracle.SetFull
)

// NewRule builds a custom rule from a function.
func NewRule(name string, fn func(a, b *Node) Verdict) Rule { return oracle.NewRule(name, fn) }

// Oracle is the rule engine deciding element-pair matches.
type Oracle = oracle.Oracle

// OracleOption tunes an Oracle (prior, estimators, strictness).
type OracleOption = oracle.Option

// NewOracle builds an Oracle from rules; the generic deep-equal rule is
// always included.
func NewOracle(rules []Rule, opts ...OracleOption) *Oracle { return oracle.New(rules, opts...) }

// NewMovieOracle builds the Oracle used in the paper's movie experiments:
// the given rule set plus a title-similarity estimator for undecided
// movie pairs.
func NewMovieOracle(s RuleSet, opts ...OracleOption) *Oracle { return oracle.MovieOracle(s, opts...) }

// Paper §V rules.
var (
	// GenreRule is "no typos occur in genres".
	GenreRule = oracle.GenreRule
	// TitleRule is "two movies cannot match if their titles are not
	// sufficiently similar".
	TitleRule = oracle.TitleRule
	// YearRule is "movies of different years cannot match".
	YearRule = oracle.YearRule
	// DirectorRule matches director names up to naming convention.
	DirectorRule = oracle.DirectorRule
)

// ExactLeafRule builds a "no typos occur in <tag>" rule.
func ExactLeafRule(tag string) Rule { return oracle.ExactLeaf(tag) }

// KeyFieldRule builds an "elements with different <field> cannot match"
// rule.
func KeyFieldRule(elemTag, fieldTag string) Rule { return oracle.KeyField(elemTag, fieldTag) }

// SimilarityRule builds an "elements cannot match unless <field> is
// sufficiently similar" rule.
func SimilarityRule(elemTag, fieldTag string, sim func(a, b string) float64, threshold float64) Rule {
	return oracle.Similarity(elemTag, fieldTag, sim, threshold)
}

// --- integration ---

// IntegrationConfig tunes the integration engine.
type IntegrationConfig = integrate.Config

// IntegrationStats reports what an integration run did.
type IntegrationStats = integrate.Stats

// Integrate merges two probabilistic documents directly (without a
// Database). Both must have a single certain root element with the same
// tag.
func Integrate(a, b *Tree, cfg IntegrationConfig) (*Tree, *IntegrationStats, error) {
	return integrate.Integrate(a, b, cfg)
}

// --- querying ---

// Query is a compiled query of the supported XPath subset.
type Query = query.Query

// Answer is one ranked probabilistic answer.
type Answer = query.Answer

// QueryResult is a ranked, probability-annotated answer sequence.
type QueryResult = query.Result

// QueryOptions configure evaluation strategies and budgets.
type QueryOptions = query.Options

// CompileQuery parses a query.
func CompileQuery(src string) (*Query, error) { return query.Compile(src) }

// MustCompileQuery is CompileQuery that panics on error.
func MustCompileQuery(src string) *Query { return query.MustCompile(src) }

// QueryMethod names an evaluation strategy.
type QueryMethod = query.Method

// Evaluation strategies for QueryOptions.Method.
const (
	MethodAuto      = query.MethodAuto
	MethodExact     = query.MethodExact
	MethodEnumerate = query.MethodEnumerate
	MethodSample    = query.MethodSample
)

// QueryPlan explains how the engine chose an evaluation strategy.
type QueryPlan = query.Plan

// DatabaseIndexStats reports the summary warms of a Database's commits.
type DatabaseIndexStats = core.IndexStats

// EvalQuery evaluates a query over a document through the planner:
// cost-based automatic strategy selection from the document's summary —
// exact when every anchor subtree fits LocalWorldLimit, sampling
// otherwise, enumeration only on request — with the explainable plan
// attached to the result. Auto evaluation returns bit-identical answers to
// explicitly requesting the method the plan names.
func EvalQuery(t *Tree, q *Query, opts QueryOptions) (QueryResult, error) {
	return query.Eval(t, q, opts)
}

// ErrQueryBudgetExhausted marks a query aborted by a per-query wall-time
// or node-visit budget.
var ErrQueryBudgetExhausted = query.ErrBudgetExhausted

// QueryExecStats reports how one evaluation ran: the budget meter reading
// and the anchor subtrees the exact executor enumerated or skipped.
type QueryExecStats = query.ExecStats

// ExpectedCount returns the expected number of result nodes of the query
// over all possible worlds — exact even on documents whose world count is
// astronomically large.
func ExpectedCount(t *Tree, q *Query) (float64, error) {
	return query.ExpectedCount(t, q, 0)
}

// --- feedback ---

// FeedbackEvent records one processed feedback judgment.
type FeedbackEvent = feedback.Event

// FeedbackOptions bound the conditioning work of feedback processing.
type FeedbackOptions = feedback.Options

// FeedbackJudgment is a user's verdict on an answer (Correct/Incorrect).
type FeedbackJudgment = feedback.Judgment

// Judgment values for FeedbackSession.Apply.
const (
	JudgmentCorrect   = feedback.Correct
	JudgmentIncorrect = feedback.Incorrect
)

// FeedbackSession applies judgments to a document outside a Database.
type FeedbackSession = feedback.Session

// NewFeedbackSession starts a feedback session over a document.
func NewFeedbackSession(t *Tree, opts FeedbackOptions) *FeedbackSession {
	return feedback.NewSession(t, opts)
}

// --- explanation ---

// ExplainReport traces an answer to the choice points it depends on.
type ExplainReport = explain.Report

// ExplainAnswer reports, for every choice point that can change whether q
// yields value, the answer probability under each forced alternative and
// the posterior of each alternative given the answer.
func ExplainAnswer(t *Tree, q *Query, value string) (*ExplainReport, error) {
	return explain.Answer(t, q, value)
}

// --- persistence ---

// Snapshot is a database snapshot loaded from disk.
type Snapshot = store.Snapshot

// Manifest is the metadata of a stored snapshot.
type Manifest = store.Manifest

// SaveSnapshot persists a document (and optional schema) into a
// directory, with integrity metadata.
func SaveSnapshot(dir string, t *Tree, schema *Schema, comment string) (Manifest, error) {
	return store.Save(dir, t, schema, comment)
}

// LoadSnapshot reads a snapshot back, verifying its checksums.
func LoadSnapshot(dir string) (*Snapshot, error) { return store.Load(dir) }

// --- serving ---

// ServerOptions configure the HTTP front end (body limits, world
// enumeration bound, request logging).
type ServerOptions = server.Options

// --- durable multi-database catalog ---

// Catalog is a data directory of named, durable databases: every
// mutation is recorded in a per-database write-ahead op log before it
// becomes visible, a background compactor folds the log into snapshots,
// and OpenCatalog recovers each database (snapshot + log tail) after any
// crash — no clean shutdown required.
type Catalog = catalog.Catalog

// CatalogDB is one named database of a Catalog; CatalogDB.Core exposes
// the journaled Database.
type CatalogDB = catalog.DB

// CatalogOptions configure a Catalog (per-database core config, write-
// ahead segment size, compaction cadence).
type CatalogOptions = catalog.Options

// OpenCatalog opens (creating if needed) the catalog rooted at dir and
// recovers every database inside it.
func OpenCatalog(dir string, opts CatalogOptions) (*Catalog, error) {
	return catalog.Open(dir, opts)
}

// NewCatalogHTTPHandler exposes a catalog over the JSON-over-HTTP API of
// the `imprecise serve` command: every per-database verb under
// /dbs/{name}/…, catalog management on /dbs, and the root routes
// (/integrate, /query, /feedback, /stats, …) aliased to the catalog's
// default database. A catalog handler is also a replication primary: it
// ships its write-ahead logs under /dbs/{name}/wal and serves bootstrap
// snapshots for replicas. The handler is safe for concurrent requests;
// see README.md for the endpoint reference.
func NewCatalogHTTPHandler(c *Catalog, opts ServerOptions) http.Handler {
	return server.NewCatalog(c, opts).Handler()
}

// --- replication ---

// Replica is a live read replica: a local follower catalog kept
// converged with a primary server by write-ahead-log shipping (snapshot
// bootstrap, long-poll tailing, divergence detection and resync).
type Replica = replica.Replica

// ReplicaOptions configure a Replica (primary URL, follower catalog
// options, poll/backoff tuning). Catalog.Config must match the
// primary's: shipped ops are re-executed locally.
type ReplicaOptions = replica.Options

// ReplicaStatus reports a replica's per-database lag and sync counters.
type ReplicaStatus = replica.Status

// OpenReplica opens (creating if needed) the follower catalog rooted at
// dir and starts synchronizing it with the primary. Close the replica to
// stop tailing; its durable state resumes from the same position on the
// next OpenReplica.
func OpenReplica(dir string, opts ReplicaOptions) (*Replica, error) {
	return replica.Open(dir, opts)
}

// NewReplicaHTTPHandler exposes a replica over HTTP: every read verb is
// served from the follower's local state, and every mutation is rejected
// with 403 plus the primary's address. POST /promote turns the replica
// into the cluster's primary: the cluster epoch is raised, the old
// primary is fenced (its stale ships rejected with ErrStaleEpoch), and
// mutations start being accepted.
func NewReplicaHTTPHandler(r *Replica, opts ServerOptions) http.Handler {
	return server.NewReplica(r, opts).Handler()
}

// ErrStaleEpoch is returned (wrapped) when a replication record or page
// arrives from a node whose cluster epoch is below the local one — the
// signature of a deposed primary still trying to ship after a failover.
var ErrStaleEpoch = catalog.ErrStaleEpoch
