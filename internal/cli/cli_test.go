package cli_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := cli.Run(args, &sb)
	return sb.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := run(t, args...)
	if err != nil {
		t.Fatalf("cli %v: %v\n%s", args, err, out)
	}
	return out
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.xml", `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`)
	b := writeFile(t, dir, "b.xml", `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`)
	d := writeFile(t, dir, "p.dtd", `
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>`)
	out := filepath.Join(dir, "out.xml")

	got := mustRun(t, "integrate", "-a", a, "-b", b, "-dtd", d, "-o", out)
	if !strings.Contains(got, "possible worlds: 3") {
		t.Fatalf("integrate output:\n%s", got)
	}
	if !strings.Contains(got, "undecided") {
		t.Fatalf("integrate output missing oracle stats:\n%s", got)
	}

	got = mustRun(t, "query", "-db", out, "-q", `//person/tel`)
	if !strings.Contains(got, "75.0%") || !strings.Contains(got, "1111") {
		t.Fatalf("query output:\n%s", got)
	}

	got = mustRun(t, "query", "-db", out, "-q", `//person/tel`, "-top", "1")
	if strings.Count(got, "%") != 1 {
		t.Fatalf("top-1 output:\n%s", got)
	}

	got = mustRun(t, "stats", "-db", out)
	for _, want := range []string{"possible worlds: 3", "logical nodes:", "certain:         false"} {
		if !strings.Contains(got, want) {
			t.Fatalf("stats output missing %q:\n%s", want, got)
		}
	}

	got = mustRun(t, "worlds", "-db", out, "-max", "2")
	if !strings.Contains(got, "world 1") || !strings.Contains(got, "world 2") || strings.Contains(got, "world 3") {
		t.Fatalf("worlds output:\n%s", got)
	}

	got = mustRun(t, "explain", "-db", out, "-q", `//person/tel`, "-value", "2222")
	if !strings.Contains(got, "influence") || !strings.Contains(got, "0.75") {
		t.Fatalf("explain output:\n%s", got)
	}

	out2 := filepath.Join(dir, "out2.xml")
	got = mustRun(t, "feedback", "-db", out, "-q", `//person/tel`, "-value", "2222", "-judgment", "incorrect", "-o", out2)
	if !strings.Contains(got, "3 -> 1") {
		t.Fatalf("feedback output:\n%s", got)
	}
	got = mustRun(t, "stats", "-db", out2)
	if !strings.Contains(got, "certain:         true") {
		t.Fatalf("after feedback:\n%s", got)
	}
}

func TestCLIGenerate(t *testing.T) {
	dir := t.TempDir()
	got := mustRun(t, "generate", "-scenario", "table1", "-dir", dir)
	for _, f := range []string{"a.xml", "b.xml", "truth.xml", "movie.dtd"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v\n%s", f, err, got)
		}
	}
	if !strings.Contains(got, "shared rwos:") {
		t.Fatalf("generate output:\n%s", got)
	}
	// Generated files integrate cleanly.
	out := mustRun(t, "integrate",
		"-a", filepath.Join(dir, "a.xml"),
		"-b", filepath.Join(dir, "b.xml"),
		"-dtd", filepath.Join(dir, "movie.dtd"),
		"-rules", "genre,title,year")
	if !strings.Contains(out, "possible worlds: 112") {
		t.Fatalf("table1 integrate:\n%s", out)
	}

	mustRun(t, "generate", "-scenario", "confusing", "-n", "6", "-dir", filepath.Join(dir, "c"))
	mustRun(t, "generate", "-scenario", "typical", "-na", "4", "-n", "8", "-shared", "2", "-dir", filepath.Join(dir, "t"))
}

// TestCLIBatchIntegrate folds three sources in one invocation and checks
// the result matches chaining two pairwise -a/-b runs.
func TestCLIBatchIntegrate(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.xml", `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`)
	b := writeFile(t, dir, "b.xml", `<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`)
	c := writeFile(t, dir, "c.xml", `<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>`)
	d := writeFile(t, dir, "p.dtd", `
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>`)

	batchOut := filepath.Join(dir, "batch.xml")
	got := mustRun(t, "integrate", "-dtd", d, "-o", batchOut, a, b, c)
	if !strings.Contains(got, "integrated:") || !strings.Contains(got, "(2/2)") {
		t.Fatalf("batch output missing per-source progress:\n%s", got)
	}

	ab := filepath.Join(dir, "ab.xml")
	mustRun(t, "integrate", "-a", a, "-b", b, "-dtd", d, "-o", ab)
	abc := filepath.Join(dir, "abc.xml")
	pairwise := mustRun(t, "integrate", "-a", ab, "-b", c, "-dtd", d, "-o", abc)

	batchStats := mustRun(t, "stats", "-db", batchOut)
	pairStats := mustRun(t, "stats", "-db", abc)
	if batchStats != pairStats {
		t.Fatalf("batch and pairwise folds diverge:\nbatch:\n%s\npairwise:\n%s", batchStats, pairStats)
	}
	_ = pairwise
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.xml", `<a/>`)
	cases := [][]string{
		{},
		{"bogus"},
		{"integrate"},
		{"integrate", "-a", a},
		{"integrate", a},                   // one positional file is not a batch
		{"integrate", "-a", a, "-b", a, a}, // flags and positional files are exclusive
		{"integrate", a, a, "missing.xml"},
		{"integrate", "-a", "missing.xml", "-b", a},
		{"integrate", "-a", a, "-b", a, "-rules", "bogus"},
		{"integrate", "-a", a, "-b", a, "-dtd", "missing.dtd"},
		{"query"},
		{"query", "-db", a},
		{"query", "-db", "missing.xml", "-q", "//a"},
		{"query", "-db", a, "-q", "broken["},
		{"query", "-db", a, "-q", "//a", "-top", "-1"},
		{"stats"},
		{"stats", "-db", "missing.xml"},
		{"worlds"},
		{"feedback"},
		{"feedback", "-db", a, "-q", "//a", "-value", "x", "-judgment", "maybe"},
		{"explain"},
		{"explain", "-db", a, "-q", "//a", "-value", "nope"},
		{"explain", "-db", a, "-q", "broken[", "-value", "x"},
		{"generate", "-scenario", "bogus"},
		{"serve", "-db", "missing.xml"},
		{"serve", "-dtd", "missing.dtd"},
		{"serve", "-rules", "bogus"},
		{"serve", "-root", ""},
		{"serve", "-addr", "not-an-address"},
	}
	for _, args := range cases {
		if _, err := run(t, args...); err == nil {
			t.Errorf("cli %v should fail", args)
		}
	}
}

func TestCLIHelp(t *testing.T) {
	got := mustRun(t, "help")
	if !strings.Contains(got, "subcommands") {
		t.Fatalf("help output:\n%s", got)
	}
}

func TestCLITruncateFlag(t *testing.T) {
	dir := t.TempDir()
	var items []string
	for i := 0; i < 6; i++ {
		items = append(items, "<item>"+strings.Repeat("x", i+1)+"</item>")
	}
	a := writeFile(t, dir, "a.xml", "<bag>"+strings.Join(items, "")+"</bag>")
	b := writeFile(t, dir, "b.xml", strings.ReplaceAll("<bag>"+strings.Join(items, "")+"</bag>", "x", "y"))
	// A 6×6 complete candidate component exceeds a 50-matching budget.
	if _, err := run(t, "integrate", "-a", a, "-b", b, "-max-matchings", "50"); err == nil {
		t.Fatalf("expected explosion error")
	}
	out := mustRun(t, "integrate", "-a", a, "-b", b, "-max-matchings", "50", "-truncate")
	if !strings.Contains(out, "WARNING") {
		t.Fatalf("truncate output should warn:\n%s", out)
	}
}
