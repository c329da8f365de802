package cli_test

import (
	"strings"
	"testing"
)

func fig2File(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	a := writeFile(t, dir, "a.xml", `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`)
	b := writeFile(t, dir, "b.xml", `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`)
	out := writeFile(t, dir, "out.xml", "")
	mustRun(t, "integrate", "-a", a, "-b", b, "-o", out)
	return out
}

// TestCLIQueryMethodFlag pins the -method flag: auto resolves to a
// concrete strategy, explicit strategies are echoed, and all agree on the
// answers.
func TestCLIQueryMethodFlag(t *testing.T) {
	out := fig2File(t)
	auto := mustRun(t, "query", "-db", out, "-q", `//person/tel`)
	if !strings.Contains(auto, "method: exact") {
		t.Fatalf("auto output:\n%s", auto)
	}
	enum := mustRun(t, "query", "-db", out, "-q", `//person/tel`, "-method", "enumerate")
	if !strings.Contains(enum, "method: enumerate") || !strings.Contains(enum, "1111") {
		t.Fatalf("enumerate output:\n%s", enum)
	}
	if _, err := run(t, "query", "-db", out, "-q", `//person/tel`, "-method", "fuzzy"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestCLIQueryExplainFlag checks -explain prints the plan.
func TestCLIQueryExplainFlag(t *testing.T) {
	out := fig2File(t)
	got := mustRun(t, "query", "-db", out, "-q", `//person[nm="John"]/tel`, "-explain")
	for _, want := range []string{"plan:", "method=exact", "reason:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIQueryRejectsNegativeSamples pins the satellite bugfix as a CLI
// usage error.
func TestCLIQueryRejectsNegativeSamples(t *testing.T) {
	out := fig2File(t)
	_, err := run(t, "query", "-db", out, "-q", `//person/tel`, "-samples", "-5")
	if err == nil || !strings.Contains(err.Error(), "Samples") {
		t.Fatalf("negative samples error = %v, want explicit rejection", err)
	}
}

// TestCLIQueryRejectsTooManySamples: a sample count above query.MaxSamples
// is a usage error, not billions of draws.
func TestCLIQueryRejectsTooManySamples(t *testing.T) {
	out := fig2File(t)
	_, err := run(t, "query", "-db", out, "-q", `//person/tel`, "-samples", "2000000000")
	if err == nil || !strings.Contains(err.Error(), "Samples must be <= 1000000") {
		t.Fatalf("oversized samples error = %v, want explicit rejection", err)
	}
}
