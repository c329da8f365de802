package shell_test

import (
	"strings"
	"testing"
)

// TestShellPlanCommand checks the plan command evaluates like query but
// prints the planner's reasoning.
func TestShellPlanCommand(t *testing.T) {
	out := exec(t,
		`loadxml <addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`,
		`integratexml <addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`,
		`plan //person[nm="John"]/tel`,
	)
	for _, want := range []string{"[exact]", "plan: method=exact pruned=", "reason:", "1111"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
}

// TestShellQueryAfterMutationReplans checks a query after feedback plans
// against and reflects the conditioned document.
func TestShellQueryAfterMutationReplans(t *testing.T) {
	out := exec(t,
		`loadxml <addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`,
		`integratexml <addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`,
		`query //person[nm="John"]/tel`,
		`feedback incorrect 2222`,
		`plan //person[nm="John"]/tel`,
	)
	if !strings.Contains(out, "feedback applied") {
		t.Fatalf("feedback missing:\n%s", out)
	}
	// After rejecting 2222, the final plan run must not rank it anymore.
	tail := out[strings.LastIndex(out, "plan: method"):]
	if strings.Contains(tail, "2222") {
		t.Fatalf("rejected answer still ranked after replan:\n%s", out)
	}
	if !strings.Contains(tail, "100.0%  1111") {
		t.Fatalf("surviving answer not certain after feedback:\n%s", out)
	}
}

// TestShellPlanRequiresQuery pins usage errors.
func TestShellPlanRequiresQuery(t *testing.T) {
	if err := execErr(t, `plan //a`); err == nil {
		t.Fatal("plan without a document should fail")
	}
}
