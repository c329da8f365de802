// Command benchmark is the end-to-end and per-layer benchmark of the
// IMPrECISE server. It builds cmd/imprecise, runs it as a child process
// exactly as an operator would (`imprecise serve -data …`), drives it over
// loopback HTTP with closed-loop clients, checks the answers against an
// in-process reference, and prints every metric of BENCHMARK.json by name.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

var workloadNames = []string{"query_cold", "query_repeat", "ingest_messy", "loop_replicated"}

// runRecord is one run as the results file keeps it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env  map[string]any `json:"env"`
	Runs []runRecord    `json:"runs"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "all", "query_cold | query_repeat | ingest_messy | loop_replicated | all")
	seed := flag.Int64("seed", 1, "seed of the corpus and of every op sequence")
	seconds := flag.Float64("seconds", 18, "length of the timed phase")
	traceFlag := flag.String("trace", "0", "1: also run the traced in-process replay and report the per-layer metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, all with the same seed; -compare wants at least 3 per side")
	out := flag.String("out", "", "write the runs and the environment to this JSON file")
	repo := flag.String("repo", "", "root of the repository to benchmark (default: the working directory if it holds cmd/imprecise, else its parent)")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare wants two results files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	trace := *traceFlag == "1" || *traceFlag == "true"
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, w := range names {
		n, ok := clientCounts[w]
		if !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		if n > runtime.NumCPU() {
			return fmt.Errorf("workload %s opens %d connections but this machine has %d CPUs: refusing, the clients would queue behind each other and not behind the server", w, n, runtime.NumCPU())
		}
	}
	if *repo == "" {
		*repo = ".."
		if _, err := os.Stat("cmd/imprecise"); err == nil {
			*repo = "."
		}
	}
	root, err := filepath.Abs(*repo)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "imprecise")
	if err := buildServer(root, bin); err != nil {
		return err
	}
	file := resultsFile{Env: environment(root, *seed, *seconds, build)}
	var last *bench
	failed := 0
	for _, w := range names {
		for r := 0; r < *repeat; r++ {
			b, err := newBench(w, *seed, *seconds, trace, fullSizes, bin, filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())), filepath.Join(root, "benchmark", "out"))
			if err != nil {
				return err
			}
			err = b.run()
			b.close()
			if err != nil {
				return fmt.Errorf("%s: %w\n%s", w, err, strings.Join(b.problems, "\n"))
			}
			b.layer["http.error_rate"] = ratio(float64(b.failed), float64(b.attempted))
			file.Runs = append(file.Runs, b.record())
			b.print()
			failed += b.failed
			last = b
		}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(file, "", "  ")
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The driver's contract: the last line of standard output is the
	// result of the (single) run.
	fmt.Println(last.resultLine())
	if failed > 0 {
		return fmt.Errorf("%d operation(s) failed", failed)
	}
	return nil
}

// buildServer compiles cmd/imprecise of the repository under test. With a
// warm build cache this takes a fraction of a second.
func buildServer(root, bin string) error {
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/imprecise")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/imprecise in %s: %v\n%s", root, err, out)
	}
	return nil
}

// metricsFor returns the definitions this run reports: the end-to-end
// list untraced, the per-layer list traced.
func (b *bench) metricsFor() ([]metricDef, map[string]float64) {
	if b.trace {
		return perLayer, b.layer
	}
	return endToEnd, b.e2e
}

func (b *bench) record() runRecord {
	rec := runRecord{Workload: b.workload, Seed: b.seed, Trace: b.trace, Attempted: b.attempted, Failed: b.failed,
		Problems: b.problems, Metrics: map[string]float64{}}
	for k, v := range b.e2e {
		rec.Metrics[k] = v
	}
	for k, v := range b.layer {
		rec.Metrics[k] = v
	}
	return rec
}

// print lists every metric the run produced, by name and unit.
func (b *bench) print() {
	fmt.Printf("# %s seed=%d seconds=%g attempted=%d failed=%d\n", b.workload, b.seed, b.seconds, b.attempted, b.failed)
	for _, p := range b.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			v, ok := b.e2e[d.Name]
			if !ok {
				v = b.layer[d.Name]
			}
			fmt.Printf("%-44s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// resultLine is the JSON object the driver reads.
func (b *bench) resultLine() string {
	defs, vals := b.metricsFor()
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]mv{}}
	for _, d := range defs {
		res.Metrics[d.Name] = mv{vals[d.Name], d.Unit}
	}
	data, _ := json.Marshal(res)
	return string(data)
}

// environment records where the numbers come from: they are this
// sandbox's, not a device's.
func environment(root string, seed int64, seconds float64, build string) map[string]any {
	env := map[string]any{
		"nproc":          runtime.NumCPU(),
		"GOMAXPROCS":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"seed":           seed,
		"seconds":        seconds,
		"loop":           "closed",
		"calibration":    fmt.Sprintf("times are divided by proc.host_slowdown: the calibration kernel's time over %g ms", calReferenceMs),
		"clients":        clientCounts,
		"server_command": "imprecise " + strings.Join(serveArgs("<data>", "<movie.dtd>"), " "),
		"flush_policy":   "fsync before a write is visible (server default); restarts are SIGKILL",
		"cpu_model":      "unknown",
		"commit":         "unknown",
		"data_fs":        "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	env["data_fs"] = filesystemOf(build)
	return env
}

// filesystemOf names the filesystem type of the longest mount point that
// contains dir.
func filesystemOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && strings.HasPrefix(dir, f[1]) && len(f[1]) > len(best) {
			best, fs = f[1], f[2]
		}
	}
	return fs
}
