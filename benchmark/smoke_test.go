package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the lists in metrics.go are what
// the harness prints. They must name the same things.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the harness has %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d characters), the harness has %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the harness has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, the harness has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
}

// Every workload at toy size, traced, against real child processes, and
// -compare over two results files: the benchmark must keep running as the
// server changes. Nothing here asserts a timing.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(root, ".bench_build", "smoke")
	t.Cleanup(func() { os.RemoveAll(scratch) })
	bin := filepath.Join(scratch, "imprecise")
	if err := buildServer(root, bin); err != nil {
		t.Fatal(err)
	}
	var files [2]resultsFile
	for _, w := range workloadNames {
		for i := range files {
			b, err := newBench(w, int64(1+i), 0.3, true, toySizes, bin, filepath.Join(scratch, "run"), filepath.Join(scratch, "out"))
			if err != nil {
				t.Fatal(err)
			}
			err = b.run()
			b.close()
			if err != nil {
				t.Fatalf("%s: %v\n%s", w, err, strings.Join(b.problems, "\n"))
			}
			if b.failed > 0 || b.attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w, b.failed, b.attempted, b.problems)
			}
			for _, d := range endToEnd {
				// A toy lap is shorter than a CPU tick (10 ms), so its CPU
				// figure may read 0; at full size a lap spans a hundred.
				if v := b.e2e[d.Name]; !(v > 0) && !(v == 0 && d.Name == "server_cpu_ms_per_op") {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w, d.Name, v)
				}
			}
			// Every layer of the README's table must have been traced.
			for _, name := range []string{"server.integrate.handler_ms_p50", "queryindex.build_ms_p50",
				"integrate.merge_ms_p50", "oracle.decide_us_p50", "xmlcodec.decode_ms_p50", "catalog.wal_record_encode_us_p50",
				"store.save_ms_p50", "replica.apply_ms_p50", "pxml.decode_arena_us_p50", "proc.cpu_s"} {
				if !(b.layer[name] > 0) {
					t.Errorf("%s: per-layer metric %s is %v, must be positive", w, name, b.layer[name])
				}
			}
			if _, err := os.Stat(filepath.Join(scratch, "out", "trace-"+w+".json")); err != nil {
				t.Errorf("%s: no span file: %v", w, err)
			}
			files[i].Runs = append(files[i].Runs, b.record())
		}
	}
	var paths [2]string
	for i, f := range files {
		paths[i] = filepath.Join(scratch, []string{"old.json", "new.json"}[i])
		data, _ := json.Marshal(f)
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := compareFiles(&out, paths[0], paths[1]); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 1+len(workloadNames)*len(endToEnd) {
		t.Errorf("-compare printed %d lines, want a header and %d rows:\n%s", got, len(workloadNames)*len(endToEnd), out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := filepath.Join("..", ".bench_build", "compare-test")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	write := func(name string, p50 []float64) string {
		var f resultsFile
		for _, v := range p50 {
			f.Runs = append(f.Runs, runRecord{Workload: "query_cold", Metrics: map[string]float64{"p50_ms": v, "ops_s": 100 / v}})
		}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{10, 10.1, 9.9, 10.05, 9.95})
	for _, tc := range []struct {
		name    string
		p50     []float64
		verdict string
		fails   bool
	}{
		{"same", []float64{10.2, 10.1, 10.3, 10.2, 10.25}, "same", false},
		{"worse", []float64{14, 14.1, 13.9, 14.05, 13.95}, "worse", true},
		{"better", []float64{6, 6.1, 5.9, 6.05, 5.95}, "better", false},
		{"noisy", []float64{6, 14, 10, 18, 2}, "unresolved", false},
	} {
		var out strings.Builder
		err := compareFiles(&out, base, write(tc.name+".json", tc.p50))
		if (err != nil) != tc.fails {
			t.Errorf("%s: error %v", tc.name, err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " p50_ms ") {
				row = line
			}
		}
		if !strings.Contains(row, tc.verdict) {
			t.Errorf("%s: want verdict %q in %q", tc.name, tc.verdict, row)
		}
	}
}
