package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dbtf"
)

// tiny returns a config small and short enough for unit tests.
func tiny() Config {
	return Config{Budget: 5 * time.Second, Machines: 4, Seed: 1, Scale: 0.2}
}

// runExp runs a registered experiment the way cmd/dbtf-bench does: through
// the registry, whose wrapper applies the config's defaults and the id.
func runExp(t *testing.T, id string, cfg Config) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e.Run(cfg)
}

func TestRegistryComplete(t *testing.T) {
	// All and Lookup are two views of one registry: every listed
	// experiment is found under its own id, once, with a title.
	all := All()
	if len(all) == 0 {
		t.Fatal("no experiments registered")
	}
	seen := map[string]bool{}
	for _, e := range all {
		if got, ok := Lookup(e.ID); !ok || got.Title != e.Title || e.Title == "" || seen[e.ID] {
			t.Errorf("experiment %q: Lookup ok=%v title %q vs %q, duplicate=%v", e.ID, ok, got.Title, e.Title, seen[e.ID])
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestAllExperimentsSmoke(t *testing.T) {
	// Every registered experiment must run end to end at a tiny scale and
	// produce a well-formed table. This is the integration test for the
	// whole reproduction harness; the real measurements come from
	// cmd/dbtf-bench and the bench suite.
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := Config{Budget: 3 * time.Second, Machines: 4, Seed: 1, Scale: 0.12}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(cfg)
			if tbl.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tbl.ID, e.ID)
			}
			if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("empty table: %+v", tbl)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(tbl.Header))
				}
			}
			var buf bytes.Buffer
			tbl.Format(&buf)
			if buf.Len() == 0 {
				t.Fatal("Format produced nothing")
			}
		})
	}
}

func TestRunMethodDBTF(t *testing.T) {
	cfg := tiny()
	x := dbtf.RandomTensor(cfg.rng(), 12, 12, 12, 0.1)
	run := RunMethod(cfg, DBTF, x, MethodOptions{Rank: 2})
	if run.OOT || run.OOM || run.Err != nil {
		t.Fatalf("run failed: %+v", run)
	}
	if run.TimeCell() == "o.o.t." {
		t.Fatal("TimeCell wrong for success")
	}
	if run.Stats.ShuffledBytes == 0 {
		t.Fatal("missing traffic stats")
	}
}

func TestRunMethodBudgetExceeded(t *testing.T) {
	cfg := tiny()
	cfg.Budget = time.Nanosecond
	x := dbtf.RandomTensor(cfg.rng(), 16, 16, 16, 0.1)
	run := RunMethod(cfg, DBTF, x, MethodOptions{Rank: 4})
	if !run.OOT {
		t.Fatalf("expected OOT, got %+v", run)
	}
	if run.TimeCell() != "o.o.t." {
		t.Fatalf("TimeCell = %q", run.TimeCell())
	}
}

func TestRunMethodUnknown(t *testing.T) {
	cfg := tiny()
	x := dbtf.RandomTensor(cfg.rng(), 4, 4, 4, 0.2)
	if run := RunMethod(cfg, Method("bogus"), x, MethodOptions{Rank: 1}); run.Err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note text"},
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	out := buf.String()
	for _, want := range []string{"x — demo", "a", "bb", "333", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestFig7ProducesSpeedups(t *testing.T) {
	cfg := tiny()
	tbl := runExp(t, "fig7", cfg)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (M=4,8,16)", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "1.00x" {
		t.Fatalf("baseline speedup cell = %q", tbl.Rows[0][2])
	}
	// M=16 must be faster in simulated time than M=4.
	if !strings.HasSuffix(tbl.Rows[2][2], "x") {
		t.Fatalf("M=16 speedup cell = %q", tbl.Rows[2][2])
	}
}

// TestChaosCostGrowsWithTheRate: every faulty row reproduces the fault-free
// run's output, and since a fault is priced from the run — the wasted attempt
// plus one stage latency per relaunch — more faults cost strictly more
// simulated time.
func TestChaosCostGrowsWithTheRate(t *testing.T) {
	tbl := runExp(t, "chaos", tiny())
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (rates 0, 0.05, 0.1, 0.2)", len(tbl.Rows))
	}
	var prev time.Duration
	for _, row := range tbl.Rows {
		if got := row[len(row)-1]; got != "=" {
			t.Errorf("rate %s: output %q, want = (bit-identical to the fault-free run)", row[0], got)
		}
		sim, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatalf("rate %s: sim time cell %q: %v", row[0], row[1], err)
		}
		if sim <= prev {
			t.Errorf("rate %s: sim time %v not above the previous row's %v", row[0], sim, prev)
		}
		prev = sim
	}
}

func TestTrafficValidationShapes(t *testing.T) {
	tbl := runExp(t, "traffic", tiny())
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	parse := func(s string) int64 {
		var v int64
		for _, ch := range s {
			v = v*10 + int64(ch-'0')
		}
		return v
	}
	baseShuffle := parse(tbl.Rows[0][1])
	denseShuffle := parse(tbl.Rows[1][1])
	if denseShuffle <= baseShuffle {
		t.Fatal("Lemma 6 shape violated: denser tensor shuffled fewer bytes")
	}
	baseBroadcast := parse(tbl.Rows[0][2])
	m8Broadcast := parse(tbl.Rows[2][2])
	if m8Broadcast != 2*baseBroadcast {
		t.Fatalf("Lemma 7 shape violated: broadcast %d vs %d", m8Broadcast, baseBroadcast)
	}
	baseCollect := parse(tbl.Rows[0][3])
	n8Collect := parse(tbl.Rows[3][3])
	if n8Collect <= baseCollect {
		t.Fatal("Lemma 7 shape violated: more partitions did not collect more")
	}
}

func TestErrWorkloadConstruction(t *testing.T) {
	cfg := tiny()
	w := makeErrWorkload(cfg, "w", 0.2, 3, 0.1, 0.05)
	if w.noisy.NNZ() == 0 || w.truth.NNZ() == 0 {
		t.Fatal("empty workload")
	}
	if w.merge != 0.95 {
		t.Fatalf("merge threshold %v, want 0.95", w.merge)
	}
	if w.noisy.Equal(w.truth) {
		t.Fatal("noise not applied")
	}
}

func TestAblationCacheRuns(t *testing.T) {
	cfg := tiny()
	tbl := runExp(t, "abl-cache", cfg)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] == "error" || row[2] == "error" {
			t.Fatalf("ablation run errored: %v", row)
		}
	}
}

func TestBCPALSInitOOMAttributionAndTopFiberSurvival(t *testing.T) {
	// A tensor whose unfolded columns push ASSO's candidate matrix over the
	// ablation's cap: the asso run must report o.o.m., attributed on the Run
	// and in the progress stream to the method, the init stage and the cap;
	// the topfiber run must complete on the exact same input — the
	// quadratic-blowup fix the ablation demonstrates.
	cfg := tiny()
	var progress bytes.Buffer
	cfg.Progress = &progress
	x := dbtf.RandomTensor(cfg.rng(), 8, 110, 110, 0.01) // 12100² bits ≈ 18 MiB > 16 MiB cap
	run := RunMethod(cfg, BCPALS, x, MethodOptions{Rank: 6, BCPALSInit: dbtf.BCPALSInitASSO, MaxCandidateBytes: bcpalsCandidateCap})
	if !run.OOM || run.OK() || run.TimeCell() != "o.o.m." {
		t.Fatalf("asso init run = %+v, want o.o.m.", run)
	}
	for _, want := range []string{"BCP_ALS", "init=asso", "memory cap"} {
		if !strings.Contains(run.FailDetail, want) {
			t.Errorf("BCP_ALS o.o.m. detail %q missing %q", run.FailDetail, want)
		}
	}
	if out := progress.String(); !strings.Contains(out, run.FailDetail) {
		t.Fatalf("o.o.m. progress line does not carry the attribution: %q", out)
	}
	run = RunMethod(cfg, BCPALS, x, MethodOptions{Rank: 6, BCPALSInit: dbtf.BCPALSInitTopFiber, MaxCandidateBytes: bcpalsCandidateCap})
	if !run.OK() || run.FailDetail != "" {
		t.Fatalf("topfiber init run = %+v, want success on the input that o.o.m.s ASSO", run)
	}

	// The other attributed failure: a DBTF run the budget cut short names
	// its init scheme.
	cfg.Budget = time.Nanosecond
	run = RunMethod(cfg, DBTF, x, MethodOptions{Rank: 4, Init: dbtf.InitTopFiber})
	for _, want := range []string{"DBTF", "init=topfiber", "budget"} {
		if !run.OOT || !strings.Contains(run.FailDetail, want) {
			t.Errorf("DBTF o.o.t. run %+v: detail missing %q", run, want)
		}
	}
}

func TestOverBudgetExtensionIsOOT(t *testing.T) {
	// A run the budget cut short is out of time, not broken — the one
	// distinction the paper's figures exist to draw. Before every cell came
	// from budgeted, the extension experiments printed "error" here.
	cfg := tiny()
	cfg.Budget = time.Nanosecond
	tbl := runExp(t, "ext-tucker", cfg)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "o.o.t." || row[2] != "o.o.t." || row[3] != "-" || row[4] != "-" {
			t.Errorf("over-budget row = %v, want o.o.t. in both run cells", row)
		}
	}
}
