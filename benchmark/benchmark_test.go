package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dbtf/internal/trace"
)

const manifestPath = "../BENCHMARK.json"

// toy shrinks a workload to a size where a whole run takes a fraction of a
// second, keeping its kind, its input count and the way it is driven.
func toy(w workload) workload {
	w.Dim, w.Rank, w.Density = 32, 4, 0.2
	w.Seeds, w.Iters = 2, 2
	w.Gap = 20 * time.Millisecond
	w.Limit = 10 * time.Second
	return w
}

// workerDir holds the dbtf-worker binary the tests build on first use.
var (
	workerDir  string
	workerOnce sync.Once
	workerBin  string
	workerErr  error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dbtf-benchmark-test")
	if err != nil {
		panic(err)
	}
	workerDir = dir
	code := m.Run()
	_ = os.RemoveAll(dir) // best effort: a temp directory
	os.Exit(code)
}

// testEnv builds dbtf-worker once per test process and gives each test
// its own scratch directory.
func testEnv(t *testing.T) *env {
	t.Helper()
	workerOnce.Do(func() { workerBin, workerErr = buildWorker(workerDir) })
	if workerErr != nil {
		t.Fatal(workerErr)
	}
	t.Cleanup(runCleanups)
	return &env{Scratch: t.TempDir(), Host: &workerHost{bin: workerBin}, Log: io.Discard}
}

func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if err := res.check(); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want a clean run", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s was emitted but is not in BENCHMARK.json", name)
		}
	}
}

// TestEndToEndToy runs all four workloads at toy size, twice, and holds
// the output to the contract: every end-to-end metric of BENCHMARK.json
// exactly once with its unit, well-formed names, finite non-zero values,
// and the metrics that depend on the inputs alone identical across runs.
func TestEndToEndToy(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, em := range m.EndToEnd {
		want[em.Name] = em.Unit
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	e := testEnv(t)
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, m.Workloads[i].Name, w.Name)
		}
		var runs [2]*result
		for r := range runs {
			res, err := runEndToEnd(context.Background(), e, toy(w), 7, 300*time.Millisecond)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			checkMetrics(t, res, want)
			for name, v := range res.Metrics {
				if v.Value == 0 {
					t.Errorf("%s: metric %s is zero", w.Name, name)
				}
			}
			runs[r] = res
		}
		for name := range deterministic {
			if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", w.Name, name, a, b)
			}
		}
	}
}

// TestLayersToy holds the traced run to the same contract for the
// per-layer metrics, on the workload that exercises every fleet.
func TestLayersToy(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, pm := range m.PerLayer {
		want[pm.Name] = pm.Unit
	}
	e := testEnv(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The span file goes under the working directory's .bench_build.
	if err := os.Chdir(e.Scratch); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	w, err := workloadByName("tcp-loopback")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLayers(context.Background(), e, toy(w), 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, want)
	spans, err := os.ReadFile(filepath.Join(e.Scratch, buildDir, "spans", "tcp-loopback-seed7.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"op"`, `"dbtf.Factorize"`, `"run"`, `"eval"`, `"transport.run:eval"`} {
		if !bytes.Contains(spans, []byte(`"name":`+name)) {
			t.Errorf("the span file has no %s span", name)
		}
	}
}

// TestSelfTimes pins the self-time fold: a span's duration minus what its
// children cover, with overlapping children counted once and a child that
// overruns its parent clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // overruns root by 20
		{ID: 4, Parent: 1, Name: "a1", Start: 10, End: 30}, // covers a entirely
		{ID: 5, Parent: 2, Name: "b1", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 0, 30 - 10, 30, 20, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestFoldEvents checks the fold of the program's begin/end events into
// spans: nesting, stage names without their mode suffix, the run_end
// snapshot, and a stray end that must not unbalance the stack.
func TestFoldEvents(t *testing.T) {
	ev := func(typ trace.Type, name string, wall int64) *trace.Event {
		e := trace.NewEvent(typ)
		e.Name, e.WallNanos = name, wall
		return e
	}
	end := ev(trace.RunEnd, "", 90)
	end.Delta = &trace.StatsDelta{Stages: 2}
	events := []*trace.Event{
		ev(trace.StageEnd, "stray", 1),
		ev(trace.RunBegin, "dbtf rank=4", 10),
		ev(trace.DriverBegin, "unfold", 11), ev(trace.DriverEnd, "unfold", 15),
		ev(trace.IterationBegin, "", 20),
		ev(trace.StageBegin, "eval:B", 21), ev(trace.Shuffle, "", 22), ev(trace.StageEnd, "eval:B", 40),
		ev(trace.DriverBegin, "commit:B", 41), ev(trace.DriverEnd, "commit:B", 43),
		ev(trace.IterationEnd, "", 80),
		end,
	}
	rec := &recorder{}
	call := rec.add("dbtf.Factorize", -1, 3, 5, 95)
	final := foldEvents(rec, call, 3, events)
	if final == nil || final.Stages != 2 {
		t.Fatalf("run_end snapshot = %+v, want Stages 2", final)
	}
	type row struct {
		name       string
		parent     string
		start, end int64
	}
	spans := rec.snapshot()
	var got []row
	for _, s := range spans[1:] {
		if s.Op != 3 {
			t.Errorf("span %s has op %d, want 3", s.Name, s.Op)
		}
		got = append(got, row{s.Name, spans[s.Parent].Name, s.Start, s.End})
	}
	want := []row{
		{"run", "dbtf.Factorize", 10, 90},
		{"unfold", "run", 11, 15},
		{"iteration", "run", 20, 80},
		{"eval", "iteration", 21, 40},
		{"commit", "iteration", 41, 43},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folded spans = %v, want %v", got, want)
	}
	m := map[string]metric{}
	stageMetrics(m, spans, 1)
	if got := m["core.eval_ms"].Value; got != 19e-6 {
		t.Errorf("core.eval_ms = %v, want 19 ns in ms", got)
	}
	// 90 of the call, minus the stages' 4+19+2.
	if got := m["core.untraced_ms"].Value; math.Abs(got-65e-6) > 1e-12 {
		t.Errorf("core.untraced_ms = %v, want 65 ns in ms", got)
	}
}

// TestQuartileSpread pins the quartiles to Python's
// statistics.quantiles(values, n=4): [2.75, 5.5, 8.25] for 1..10.
func TestQuartileSpread(t *testing.T) {
	values := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(values), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value has spread %v, want 0", got)
	}
}

// TestBestPerVariant: the minimum within each variant, averaged over the
// variants that ran.
func TestBestPerVariant(t *testing.T) {
	got := bestPerVariant([]float64{5, 3, 9, 4, 8}, []int{0, 0, 1, 2, 2}, 4)
	if want := (3.0 + 9 + 4) / 3; got != want {
		t.Errorf("bestPerVariant = %v, want %v", got, want)
	}
}

// TestVerifyCountsFailures: an op whose factors differ from its variant's
// first repeat is a failed op, it misses the limit, and the run is not
// correct — it is counted, not skipped.
func TestVerifyCountsFailures(t *testing.T) {
	e := testEnv(t)
	w, err := workloadByName("planted-eval")
	if err != nil {
		t.Fatal(err)
	}
	w = toy(w)
	in, err := generate(w, 3, e.Scratch)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := startEngine(context.Background(), w, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := eng.measure(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	outs = append(outs, outs[2])
	outs[len(outs)-1].Hash = "0000000000000000" // a repeat of variant 2 with other factors
	outs[1].Err = errors.New("the call failed")
	if err := verify(context.Background(), w, in, outs); err != nil {
		t.Fatal(err)
	}
	res := summarize(w, outs)
	if res.Correct || res.Failed != 2 || res.Attempted != len(outs) {
		t.Fatalf("correct=%v failed=%d attempted=%d, want 2 of %d failed", res.Correct, res.Failed, res.Attempted, len(outs))
	}
	if got, want := res.Metrics["ops_within_limit_ratio"].Value, float64(len(outs)-2)/float64(len(outs)); got != want {
		t.Errorf("ops_within_limit_ratio = %v, want %v", got, want)
	}
}

// TestAgree drives the A/A tool over two written sets: agreement exits 0;
// a median outside its bound, a deterministic metric that differs, and a
// missing workload each exit 1.
func TestAgree(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, tweak func(workload string, metrics map[string]metric)) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 5; seed++ {
			for _, wl := range m.Workloads {
				metrics := map[string]metric{}
				for _, em := range m.EndToEnd {
					metrics[em.Name] = metric{100 + float64(seed)/10, em.Unit}
				}
				tweak(wl.Name, metrics)
				if len(metrics) == 0 {
					continue
				}
				if err := appendRecord(path, record{Workload: wl.Name, Seed: seed, result: result{Correct: true, Attempted: 1, Metrics: metrics}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	same := write("a.jsonl", func(string, map[string]metric) {})
	cases := []struct {
		name  string
		tweak func(workload string, metrics map[string]metric)
		code  int
		says  string
	}{
		{"identical", func(string, map[string]metric) {}, 0, "agree within every bound"},
		{"slower", func(w string, ms map[string]metric) {
			if w == "tcp-loopback" {
				ms["alloc_mb_per_op"] = metric{ms["alloc_mb_per_op"].Value * 1.5, "MB"}
			}
		}, 1, "MEDIANS DISAGREE"},
		{"different-answer", func(w string, ms map[string]metric) {
			if w == "planted-eval" {
				ms["relative_error"] = metric{ms["relative_error"].Value + 1e-9, "ratio"}
			}
		}, 1, "NOT IDENTICAL"},
		{"missing", func(w string, ms map[string]metric) {
			if w == "serve-openloop" {
				clear(ms)
			}
		}, 1, "MISSING"},
	}
	for _, c := range cases {
		var out strings.Builder
		code, err := agreeFiles(&out, manifestPath, same, write(c.name+".jsonl", c.tweak))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if code != c.code || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", c.name, code, c.code, c.says, out.String())
		}
	}
}

// TestManifest holds BENCHMARK.json to the limits the driver checks before
// it runs anything.
func TestManifest(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	hasSetup := false
	for _, em := range m.EndToEnd {
		names = append(names, em.Name)
		if em.Bound <= 0 || em.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", em.Name, em.Bound)
		}
		if em.Better != "lower" && em.Better != "higher" {
			t.Errorf("%s: better is %q", em.Name, em.Better)
		}
		hasSetup = hasSetup || (em.Name == "setup_s" && em.Unit == "s" && em.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, pm := range m.PerLayer {
		names = append(names, pm.Name)
	}
	for _, wl := range m.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	for i, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if i > 0 && names[i-1] == n {
			t.Errorf("name %q is used twice", n)
		}
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads: outside the driver's limits", len(m.EndToEnd), len(m.PerLayer), len(m.Workloads))
	}
}
