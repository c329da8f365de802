package query

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"repro/internal/pxml"
	"repro/internal/worlds"
)

// Answer is one amalgamated query answer: a distinct result value with the
// probability that at least one possible world produces it — the paper's
// ranked answers ("'Jaws' and 'Jaws 2' with an equal rank of 97%").
type Answer struct {
	Value string
	P     float64
}

// Method names the evaluation strategy that produced a result.
type Method string

const (
	// MethodExact is compositional exact evaluation.
	MethodExact Method = "exact"
	// MethodEnumerate is exhaustive world enumeration.
	MethodEnumerate Method = "enumerate"
	// MethodSample is Monte-Carlo estimation.
	MethodSample Method = "sample"
	// MethodAuto lets the planner choose the strategy (the default).
	MethodAuto Method = "auto"
)

// Result is a ranked, probability-annotated answer sequence.
type Result struct {
	Answers []Answer
	Method  Method
	// SampledWorlds is the number of Monte-Carlo samples (MethodSample).
	SampledWorlds int
	// Plan explains how the engine chose the strategy. Nil only on a
	// Result built outside the engine.
	Plan *Plan
	// Exec reports how the evaluation ran (budget meter, anchors
	// enumerated). Zero for cache hits served without re-execution.
	Exec ExecStats

	// lookup is the lazily built value -> probability map behind P.
	// It is a pointer so that copies of the Result share one map build.
	lookup *valueLookup
}

type valueLookup struct {
	once sync.Once
	m    map[string]float64
}

// newResult assembles a Result with a lazy value-lookup attached.
func newResult(answers []Answer, method Method, sampled int, plan *Plan) Result {
	return Result{
		Answers:       answers,
		Method:        method,
		SampledWorlds: sampled,
		Plan:          plan,
		lookup:        &valueLookup{},
	}
}

// Top returns the first n answers: all of them when there are fewer than n,
// none when n is not positive.
func (r Result) Top(n int) []Answer {
	return r.Answers[:min(max(n, 0), len(r.Answers))]
}

// P returns the probability of a given answer value, or 0. The first
// lookup on a large answer set builds a value map once, so top-k
// post-processing that probes many values stays linear instead of
// quadratic; results constructed literally (no lookup attached) fall back
// to a linear scan.
func (r Result) P(value string) float64 {
	if r.lookup == nil {
		for _, a := range r.Answers {
			if a.Value == value {
				return a.P
			}
		}
		return 0
	}
	r.lookup.once.Do(func() {
		m := make(map[string]float64, len(r.Answers))
		for _, a := range r.Answers {
			if _, dup := m[a.Value]; !dup {
				m[a.Value] = a.P
			}
		}
		r.lookup.m = m
	})
	return r.lookup.m[value]
}

// Options configure evaluation.
type Options struct {
	// Method selects the evaluation strategy. Empty or MethodAuto lets
	// the planner choose exact or sample from the summary; an explicit
	// method is used verbatim and its applicability errors surface to the
	// caller. Enumeration runs only when requested.
	Method Method
	// LocalWorldLimit bounds per-anchor local enumeration in the exact
	// evaluator (default DefaultLocalWorldLimit). Negative values are
	// rejected by Validate.
	LocalWorldLimit int
	// EnumWorldLimit bounds full-world enumeration under MethodEnumerate
	// (default 100000). Negative values are rejected by Validate.
	EnumWorldLimit int
	// Samples is the Monte-Carlo sample count (default 20000). Negative
	// values and values above MaxSamples are rejected by Validate.
	Samples int
	// Seed seeds the Monte-Carlo sampler. Nil means the default seed 1;
	// pointing at any value — including 0 — requests exactly that seed.
	// Build it with SeedPtr.
	Seed *int64
	// Workers is accepted and ignored: every evaluation runs on the
	// calling goroutine, because fanning one query out over a worker pool
	// measured slower than running it sequentially. Negative values are
	// still rejected by Validate.
	Workers int
	// TimeBudget bounds evaluation wall-clock time; 0 means unlimited.
	// Exhaustion surfaces as ErrBudgetExhausted with Plan.BudgetExhausted
	// set. Negative values are rejected by Validate.
	TimeBudget time.Duration
	// MaxNodeVisits bounds evaluation work, metered in node visits plus
	// enumerated worlds plus drawn samples; 0 means unlimited. Negative
	// values are rejected by Validate.
	MaxNodeVisits int64
}

// SeedPtr returns a pointer to v for Options.Seed, which is a pointer so
// that seed 0 is distinguishable from "use the default".
func SeedPtr(v int64) *int64 { return &v }

const (
	defaultEnumWorldLimit = 100000
	defaultSamples        = 20000
)

// MaxSamples is the largest Monte-Carlo sample count Validate accepts, 50
// times the default: every sample walks a whole world, so an unbounded
// count lets one request pin a core indefinitely.
const MaxSamples = 1000000

// ErrBadOptions marks option validation failures; front ends map it to a
// usage error (HTTP 400 / CLI usage message).
var ErrBadOptions = errors.New("query: invalid options")

// Validate rejects nonsensical options. Zero values always mean "use the
// default"; negative budgets used to be silently coerced to the default,
// which hid caller bugs — they are now explicit errors.
func (o Options) Validate() error {
	if o.Samples < 0 {
		return fmt.Errorf("%w: Samples must be >= 0 (0 means default %d), got %d",
			ErrBadOptions, defaultSamples, o.Samples)
	}
	if o.Samples > MaxSamples {
		return fmt.Errorf("%w: Samples must be <= %d, got %d",
			ErrBadOptions, MaxSamples, o.Samples)
	}
	if o.EnumWorldLimit < 0 {
		return fmt.Errorf("%w: EnumWorldLimit must be >= 0 (0 means default %d), got %d",
			ErrBadOptions, defaultEnumWorldLimit, o.EnumWorldLimit)
	}
	if o.LocalWorldLimit < 0 {
		return fmt.Errorf("%w: LocalWorldLimit must be >= 0 (0 means default %d), got %d",
			ErrBadOptions, DefaultLocalWorldLimit, o.LocalWorldLimit)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers must be >= 0 (it is ignored), got %d",
			ErrBadOptions, o.Workers)
	}
	if o.TimeBudget < 0 {
		return fmt.Errorf("%w: TimeBudget must be >= 0 (0 means unlimited), got %s",
			ErrBadOptions, o.TimeBudget)
	}
	if o.MaxNodeVisits < 0 {
		return fmt.Errorf("%w: MaxNodeVisits must be >= 0 (0 means unlimited), got %d",
			ErrBadOptions, o.MaxNodeVisits)
	}
	switch o.Method {
	case "", MethodAuto, MethodExact, MethodEnumerate, MethodSample:
		return nil
	default:
		return fmt.Errorf("%w: unknown method %q (auto | exact | enumerate | sample)",
			ErrBadOptions, o.Method)
	}
}

func (o Options) method() Method {
	if o.Method == "" {
		return MethodAuto
	}
	return o.Method
}

func (o Options) enumLimit() int {
	if o.EnumWorldLimit > 0 {
		return o.EnumWorldLimit
	}
	return defaultEnumWorldLimit
}

func (o Options) samples() int {
	if o.Samples > 0 {
		return o.Samples
	}
	return defaultSamples
}

func (o Options) seed() int64 {
	if o.Seed != nil {
		return *o.Seed
	}
	return 1
}

// EvalEnumerate computes answer probabilities by full possible-world
// enumeration — exponential, but exact and assumption-free; the ground
// truth the other evaluators are tested against, and what an explicit
// MethodEnumerate runs.
func EvalEnumerate(t *pxml.Tree, q *Query, maxWorlds int) ([]Answer, error) {
	return evalEnumerate(t, q, maxWorlds, nil)
}

// evalEnumerate is EvalEnumerate with the budget meter the planned engine
// threads through: one step per enumerated world, so cancellation and
// budgets interrupt even exponential enumerations promptly.
func evalEnumerate(t *pxml.Tree, q *Query, maxWorlds int, b *budget) ([]Answer, error) {
	wc := t.WorldCount()
	if maxWorlds > 0 && wc.Cmp(big.NewInt(int64(maxWorlds))) > 0 {
		return nil, fmt.Errorf("%w: %s > %d", worlds.ErrTooManyWorlds, wc.String(), maxWorlds)
	}
	acc := make(map[string]float64)
	var stepErr error
	w := &walker{}
	w.eachWorld(t.Root(), func(p float64) bool {
		if stepErr = b.step(); stepErr != nil {
			return false
		}
		w.eval(q, stateSet(1))
		for _, v := range w.vals {
			acc[v] += p
		}
		return true
	})
	if stepErr != nil {
		return nil, stepErr
	}
	return mapToAnswers(acc), nil
}

// sampleChunkSize fixes the sample-stream chunk layout. It is a format
// constant of sorts: changing it changes which RNG substream draws which
// sample, and therefore the (deterministic) estimates for a given seed.
const sampleChunkSize = 512

// EvalSample estimates answer probabilities from n sampled worlds using
// the given seed. The estimate's standard error is ≈ sqrt(p(1−p)/n).
//
// The sample stream is organized as fixed chunks of sampleChunkSize worlds
// whose RNGs derive from (seed, chunk index) via mixSeed, and per-chunk
// sums merge into the estimate in chunk order — so the result for a given
// (n, seed) is reproducible bit for bit.
func EvalSample(t *pxml.Tree, q *Query, n int, seed int64) []Answer {
	answers, _ := evalSample(t, q, n, seed, nil)
	return answers
}

// evalSample is EvalSample with the budget meter the planned engine
// threads through: one step per drawn sample.
func evalSample(t *pxml.Tree, q *Query, n int, seed int64, b *budget) ([]Answer, error) {
	if n <= 0 {
		n = defaultSamples
	}
	inc := 1 / float64(n)
	acc := make(map[string]float64)
	chunk := make(map[string]float64)
	w := &walker{}
	for ci := 0; ci*sampleChunkSize < n; ci++ {
		count := min(sampleChunkSize, n-ci*sampleChunkSize)
		rng := rand.New(rand.NewSource(mixSeed(seed, ci)))
		clear(chunk)
		for i := 0; i < count; i++ {
			if err := b.step(); err != nil {
				return nil, err
			}
			w.sample(t.Root(), rng)
			w.eval(q, stateSet(1))
			for _, v := range w.vals {
				chunk[v] += inc
			}
		}
		for v, p := range chunk {
			acc[v] += p
		}
	}
	return mapToAnswers(acc), nil
}

// mixSeed derives the RNG seed of sample chunk i from the user seed with a
// splitmix64 finalizer. Chunk streams are statistically independent yet a
// pure function of (seed, chunk), so the estimate for an (n, seed) pair
// depends on nothing but the pair.
func mixSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func mapToAnswers(acc map[string]float64) []Answer {
	answers := make([]Answer, 0, len(acc))
	for v, p := range acc {
		if p > 1e-12 {
			answers = append(answers, Answer{Value: v, P: p})
		}
	}
	sortAnswers(answers)
	return answers
}
