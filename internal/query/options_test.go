package query

import (
	"errors"
	"testing"
)

// TestSeedZeroRequestable pins the Options.Seed contract: nil means the
// default seed 1, while an explicit pointer — including to 0, which the
// old int64 field silently coerced to the default — is honored exactly.
func TestSeedZeroRequestable(t *testing.T) {
	if got := (Options{}).seed(); got != 1 {
		t.Fatalf("default seed = %d, want 1", got)
	}
	if got := (Options{Seed: SeedPtr(0)}).seed(); got != 0 {
		t.Fatalf("explicit seed 0 = %d, want 0", got)
	}
	if got := (Options{Seed: SeedPtr(-7)}).seed(); got != -7 {
		t.Fatalf("explicit seed -7 = %d, want -7", got)
	}
}

// TestValidateRejectsNegativeBudgets pins the Options contract: zero
// means "use the default", but negative budgets — which the old code
// silently coerced to the default — are explicit errors, and so is a
// sample count above MaxSamples.
func TestValidateRejectsNegativeBudgets(t *testing.T) {
	good := []Options{
		{},
		{Samples: 1, EnumWorldLimit: 1, LocalWorldLimit: 1},
		{Method: MethodAuto},
		{Method: MethodExact},
		{Method: MethodEnumerate},
		{Method: MethodSample},
		{Seed: SeedPtr(-5)}, // seeds may be negative; they are not budgets
		{Samples: MaxSamples},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	bad := []Options{
		{Samples: -1},
		{Samples: MaxSamples + 1},
		{Samples: 2000000000},
		{EnumWorldLimit: -10},
		{LocalWorldLimit: -1},
		{Method: "fuzzy"},
	}
	for _, o := range bad {
		err := o.Validate()
		if !errors.Is(err, ErrBadOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadOptions", o, err)
		}
	}
}

// TestEvalValidatesOptions checks validation is enforced at the engine
// entry points, not just available.
func TestEvalValidatesOptions(t *testing.T) {
	q := MustCompile(`//a`)
	if _, err := Eval(nil, q, Options{Samples: -3}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Eval with negative samples = %v, want ErrBadOptions", err)
	}
	if _, err := EvalIndexed(nil, q, Options{EnumWorldLimit: -1}, nil); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("EvalIndexed with negative enum limit = %v, want ErrBadOptions", err)
	}
}
