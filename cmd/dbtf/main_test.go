package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dbtf"
	"dbtf/internal/trace"
)

func writeTensor(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	x, _ := dbtf.TensorFromRandomFactors(rng, 12, 12, 12, 2, 0.25)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := x.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRequiresInput(t *testing.T) {
	if err := run([]string{"-rank", "2"}); err == nil {
		t.Fatal("missing -input accepted")
	}
}

func TestRunUnknownMethod(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-method", "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"-input", "/nonexistent/x.tns"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunDBTFWithOutput(t *testing.T) {
	path := writeTensor(t)
	prefix := filepath.Join(t.TempDir(), "factors")
	out := captureStdout(t, func() error {
		return run([]string{"-input", path, "-rank", "2", "-machines", "2", "-output", prefix})
	})
	// The three "wrote" lines come in the order A, B, C on every run.
	if a, b, c := strings.Index(out, "wrote "+prefix+".A"), strings.Index(out, "wrote "+prefix+".B"), strings.Index(out, "wrote "+prefix+".C"); a < 0 || a > b || b > c {
		t.Fatalf("factor files not reported in order A, B, C:\n%s", out)
	}
	for _, suffix := range []string{".A", ".B", ".C"} {
		m, err := dbtf.ReadFactorMatrix(prefix + suffix)
		if err != nil {
			t.Fatalf("factor file %s: %v", suffix, err)
		}
		if m.Rows() != 12 || m.Rank() != 2 {
			t.Fatalf("factor file %s has shape %dx%d", suffix, m.Rows(), m.Rank())
		}
	}
}

// TestRunMachinesZeroNamesGOMAXPROCS: -machines 0 runs on GOMAXPROCS
// simulated machines, and the summary names the count the run used, not
// the flag.
func TestRunMachinesZeroNamesGOMAXPROCS(t *testing.T) {
	path := writeTensor(t)
	out := captureStdout(t, func() error {
		return run([]string{"-input", path, "-rank", "2", "-machines", "0"})
	})
	if want := fmt.Sprintf(" on %d machines in ", runtime.GOMAXPROCS(0)); !strings.Contains(out, want) {
		t.Fatalf("summary does not read %q:\n%s", want, out)
	}
}

func TestRunTucker(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "2", "-method", "tucker", "-machines", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBCPALS(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "2", "-method", "bcpals"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWalkNMerge(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "2", "-method", "walknmerge"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBudgetExceeded(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "4", "-budget", "1ns"}); err == nil {
		t.Fatal("expired budget not surfaced")
	}
}

func TestRunChaos(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "2", "-machines", "2", "-chaos", "0.2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosRateValidated(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "2", "-chaos", "0.9"}); err == nil {
		t.Fatal("chaos rate 0.9 accepted")
	}
}

func TestRunFlagCombosValidatedUpFront(t *testing.T) {
	path := writeTensor(t)
	cases := map[string][]string{
		"resume without checkpoint-dir":  {"-resume"},
		"checkpoint-every zero":          {"-checkpoint-dir", t.TempDir(), "-checkpoint-every", "0"},
		"checkpoint-every negative":      {"-checkpoint-dir", t.TempDir(), "-checkpoint-every", "-2"},
		"machine-loss rate 1":            {"-chaos-machine-loss", "1"},
		"machine-loss rate negative":     {"-chaos-machine-loss", "-0.1"},
		"rejoin negative":                {"-chaos-rejoin", "-1"},
		"chaos negative":                 {"-chaos", "-0.2"},
		"workers with another method":    {"-workers", "127.0.0.1:1", "-method", "bcpals"},
		"workers with auto-rank":         {"-workers", "127.0.0.1:1", "-auto-rank", "3"},
		"workers with an empty address":  {"-workers", "127.0.0.1:1,,127.0.0.1:2"},
		"workers with chaos":             {"-workers", "127.0.0.1:1", "-chaos", "0.1"},
		"the deleted -transport flag":    {"-transport", "sim"},
		"the deleted -max-retries flag":  {"-max-retries", "3"},
		"the deleted -failfast flag":     {"-failfast"},
		"budget negative":                {"-budget", "-1s"},
		"auto-rank negative":             {"-auto-rank", "-3"},
		"auto-rank with another method":  {"-method", "tucker", "-auto-rank", "5"},
		"checkpoint-every without a dir": {"-checkpoint-every", "3"},
	}
	for name, extra := range cases {
		args := append([]string{"-input", path, "-rank", "2", "-machines", "2"}, extra...)
		if err := run(args); err == nil {
			t.Errorf("%s: invalid flags accepted: %v", name, extra)
		}
	}
	// A flag the chosen method does not read is refused by name, not
	// dropped: each of these ran and exited 0 while the method ignored it.
	unread := map[string][]string{
		"-checkpoint-dir": {"-method", "tucker", "-checkpoint-dir", filepath.Join(t.TempDir(), "d")},
		"-chaos":          {"-method", "bcpals", "-chaos", "0.1"},
		"-groupbits":      {"-method", "walknmerge", "-groupbits", "3"},
		"-partitions":     {"-method", "tucker", "-partitions", "3"},
		"-mdl":            {"-method", "dbtf", "-mdl"},
	}
	for flag, extra := range unread {
		args := append([]string{"-input", path, "-rank", "2"}, extra...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%v: %v, want %s refused", extra, err, flag)
		}
	}
}

// TestRunAutoRankZeroIsOff runs with -auto-rank at its default given
// explicitly: 0 turns the selection off, under any method.
func TestRunAutoRankZeroIsOff(t *testing.T) {
	path := writeTensor(t)
	for _, extra := range [][]string{{"-auto-rank", "0"}, {"-method", "tucker", "-auto-rank", "0"}} {
		args := append([]string{"-input", path, "-rank", "2", "-machines", "2"}, extra...)
		if err := run(args); err != nil {
			t.Errorf("%v: %v", extra, err)
		}
	}
}

func TestRunMachineLossChaos(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-rank", "2", "-machines", "4",
		"-chaos-machine-loss", "0.15", "-chaos-rejoin", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointThenResume runs three iterations at period 2, so the last
// boundary is off the period and still checkpointed: the resumed run starts
// at iteration 3 and returns the result in its one stage, with no eval.
func TestRunCheckpointThenResume(t *testing.T) {
	x := dbtf.RandomTensor(rand.New(rand.NewSource(1)), 30, 30, 30, 0.1) // dbtf-gen -type random -dims 30,30,30 -density 0.1 -seed 1
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := x.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	dir, out := t.TempDir(), filepath.Join(t.TempDir(), "r.jsonl")
	base := []string{"-input", path, "-rank", "8", "-maxiter", "3", "-machines", "4", "-seed", "1", "-checkpoint-dir", dir, "-checkpoint-every", "2"}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-resume", "-trace", out)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	from, stages, evals := 0, 0, 0
	for _, ev := range events {
		switch {
		case ev.Type == trace.RunBegin:
			from = ev.Iteration
		case ev.Type == trace.StageBegin:
			stages++
			if strings.HasPrefix(ev.Name, "eval:") {
				evals++
			}
		}
	}
	if from != 3 || stages != 1 || evals != 0 {
		t.Fatalf("the resumed run began at iteration %d with %d stages, %d of them eval; want 3, 1 and none", from, stages, evals)
	}
}

func TestRunTraceWritesValidJSONL(t *testing.T) {
	path := writeTensor(t)
	out := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run([]string{"-input", path, "-rank", "2", "-machines", "2",
		"-chaos", "0.1", "-trace", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := trace.ValidateJSONL(f)
	if err != nil {
		t.Fatalf("trace written by -trace is invalid: %v", err)
	}
	if sum.Runs != 1 || sum.Stages == 0 {
		t.Fatalf("trace summary %+v, want 1 run with stages", sum)
	}
}

func TestRunTraceChromeIsJSON(t *testing.T) {
	path := writeTensor(t)
	out := filepath.Join(t.TempDir(), "run.json")
	if err := run([]string{"-input", path, "-rank", "2", "-machines", "2",
		"-trace", out, "-trace-format", "chrome"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace empty")
	}
}

func TestRunTraceFlagValidation(t *testing.T) {
	path := writeTensor(t)
	cases := map[string][]string{
		"bad format":           {"-trace", "x.jsonl", "-trace-format", "xml"},
		"non-dbtf method":      {"-method", "bcpals", "-trace", "x.jsonl"},
		"auto-rank with trace": {"-auto-rank", "4", "-trace", "x.jsonl"},
	}
	for name, extra := range cases {
		args := append([]string{"-input", path, "-rank", "2"}, extra...)
		if err := run(args); err == nil {
			t.Errorf("%s: invalid trace flags accepted: %v", name, extra)
		}
	}
}

func TestRunInitFlag(t *testing.T) {
	path := writeTensor(t)
	ok := map[string][]string{
		"dbtf topfiber":   {"-rank", "2", "-machines", "2", "-init", "topfiber"},
		"dbtf random":     {"-rank", "2", "-machines", "2", "-init", "random"},
		"bcpals asso":     {"-rank", "2", "-method", "bcpals", "-init", "asso"},
		"bcpals topfiber": {"-rank", "2", "-method", "bcpals", "-init", "topfiber"},
	}
	for name, extra := range ok {
		if err := run(append([]string{"-input", path}, extra...)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := map[string][]string{
		"dbtf unknown scheme":          {"-rank", "2", "-init", "bogus"},
		"bcpals takes no fiber":        {"-rank", "2", "-method", "bcpals", "-init", "fiber"},
		"walknmerge takes no init":     {"-rank", "2", "-method", "walknmerge", "-init", "topfiber"},
		"topfiber rejects initialsets": {"-rank", "2", "-init", "topfiber", "-sets", "2"},
	}
	for name, extra := range bad {
		if err := run(append([]string{"-input", path}, extra...)); err == nil {
			t.Errorf("%s: invalid -init accepted: %v", name, extra)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed. Tests in this package do not run in parallel.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunVerbose: -v is a trace sink over the typed event stream. It must
// print one line per iteration — its error and how many factor entries it
// flipped — and per checkpoint, and a resumed run must say where it resumed
// from.
func TestRunVerbose(t *testing.T) {
	path := writeTensor(t)
	dir := t.TempDir()
	args := []string{"-input", path, "-rank", "2", "-machines", "2", "-maxiter", "3", "-v",
		"-checkpoint-dir", dir}
	out := captureStdout(t, func() error { return run(args) })
	var iters int
	if _, err := fmt.Sscanf(out[strings.Index(out, "dbtf: "):], "dbtf: %d iterations", &iters); err != nil {
		t.Fatalf("no summary line in output:\n%s", out)
	}
	for it := 1; it <= iters; it++ {
		for _, prefix := range []string{"  iteration %d: error ", "  checkpoint: iteration %d, "} {
			if want := fmt.Sprintf(prefix, it); strings.Count(out, want) != 1 {
				t.Errorf("want exactly one %q line, output:\n%s", want, out)
			}
		}
	}
	if got := strings.Count(out, " entries flipped\n"); got != iters {
		t.Errorf("%d of %d iteration lines say how many entries flipped:\n%s", got, iters, out)
	}
	if strings.Contains(out, "resumed from checkpoint") {
		t.Errorf("fresh run reports a resume:\n%s", out)
	}

	out = captureStdout(t, func() error { return run(append(args, "-resume")) })
	if want := fmt.Sprintf("  resumed from checkpoint: iteration %d, error ", iters); !strings.Contains(out, want) {
		t.Errorf("resumed run does not print %q:\n%s", want, out)
	}
}

// TestRunVerboseWithTrace: -v and -trace share one tracer through a tee;
// neither may starve the other.
func TestRunVerboseWithTrace(t *testing.T) {
	path := writeTensor(t)
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	out := captureStdout(t, func() error {
		return run([]string{"-input", path, "-rank", "2", "-machines", "2", "-v", "-trace", jsonl})
	})
	if !strings.Contains(out, "  iteration 1: error ") {
		t.Errorf("-v printed no iteration line next to -trace:\n%s", out)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.ValidateJSONL(f); err != nil {
		t.Errorf("trace written next to -v is invalid: %v", err)
	}
}

func TestRunAutoRank(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-auto-rank", "4", "-machines", "2", "-sets", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAutoRankHonoursFlags: -auto-rank runs the one set of options every
// other flag built, validated before the tensor is read.
func TestRunAutoRankHonoursFlags(t *testing.T) {
	path := writeTensor(t)
	dir := t.TempDir()
	// Every injected loss or panic is retried, so -chaos reaching the runs
	// shows as retries in their summary.
	out := captureStdout(t, func() error {
		return run([]string{"-input", path, "-auto-rank", "3", "-machines", "2", "-chaos", "0.4", "-checkpoint-dir", dir})
	})
	var faults, retries int
	if i := strings.Index(out, "chaos: "); i < 0 {
		t.Errorf("no chaos summary: the chaos flags were dropped\n%s", out)
	} else if _, err := fmt.Sscanf(out[i:], "chaos: %d injected faults, %d retries", &faults, &retries); err != nil || faults == 0 || retries < faults {
		t.Errorf("%d injected faults, %d retries (err %v), want some faults and a retry for each\n%s", faults, retries, err, out)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.dbtf")); len(files) == 0 || !strings.Contains(out, "checkpoint: ") {
		t.Errorf("-checkpoint-dir wrote %d checkpoints\n%s", len(files), out)
	}

	err := run([]string{"-input", "/nonexistent/x.tns", "-auto-rank", "3", "-machines", "-1"})
	if err == nil || !strings.Contains(err.Error(), "achines") {
		t.Errorf("-machines -1 on a missing input: %v, want the machine count refused first", err)
	}
	if err := run([]string{"-input", path, "-auto-rank", "3", "-machines", "2", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}

func TestRunWalkNMergeMDL(t *testing.T) {
	path := writeTensor(t)
	if err := run([]string{"-input", path, "-method", "walknmerge", "-mdl"}); err != nil {
		t.Fatal(err)
	}
}
