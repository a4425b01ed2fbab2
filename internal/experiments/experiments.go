// Package experiments reproduces every table and figure of the paper's
// evaluation (Section IV) on scaled-down workloads: the data-scalability
// sweeps of Figure 1, the real-world comparison of Figure 6, the machine
// scalability of Figure 7, the reconstruction-error sweeps of Section
// IV-D, the traffic validation of Lemmas 6–7, and the ablations DESIGN.md
// calls out.
//
// Each experiment is registered by the identifier used in DESIGN.md's
// experiment index and returns a formatted Table; cmd/dbtf-bench prints
// them and the root bench_test.go drives them under `go test -bench`.
//
// Per-run time budgets replace the paper's 6- and 12-hour walls: a method
// exceeding the budget is reported as "o.o.t.", and BCP_ALS runs whose
// quadratic initialization exceeds the memory cap are reported as
// "o.o.m.", matching how the paper's figures mark failures.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dbtf"
	"dbtf/internal/asso"
)

// Config carries the knobs every experiment shares. An experiment run
// through the registry (All, Lookup) gets the documented defaults for its
// zero fields; RunMethod and RunDBTF take the config as an experiment hands
// it on, defaults applied.
type Config struct {
	// Budget is the per-run time budget standing in for the paper's
	// out-of-time walls. Default 30s.
	Budget time.Duration
	// Machines is the simulated cluster size for DBTF. Default 16 (the
	// paper's executor count).
	Machines int
	// Seed makes all generated data and methods deterministic.
	Seed int64
	// Scale shrinks or grows the default workload sizes. Default 1.0;
	// the bench harness uses smaller scales to keep `go test -bench`
	// turnaround reasonable.
	Scale float64
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Tracer, when non-nil, receives the structured trace events of every
	// DBTF run the experiments execute (one run span per Factorize call,
	// all on one stream).
	Tracer *dbtf.Tracer
}

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = 30 * time.Second
	}
	if c.Machines == 0 {
		c.Machines = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// plantedTensor builds the paper's synthetic workload (Section IV-A.1: "we
// generate three random factor matrices, construct a noise-free tensor
// from them, and then add noise"): a dim³ cube from random rank-r factors
// of the given density, and that cube under additive and destructive noise.
func plantedTensor(cfg Config, dim, rank int, density, additive, destructive float64) (truth, noisy *dbtf.Tensor) {
	rng := cfg.rng()
	truth, _ = dbtf.TensorFromRandomFactors(rng, dim, dim, dim, rank, density)
	return truth, dbtf.AddNoise(rng, truth, additive, destructive)
}

// Method identifies a factorization method under comparison.
type Method string

// The three methods of the paper's evaluation.
const (
	DBTF       Method = "DBTF"
	BCPALS     Method = "BCP_ALS"
	WalkNMerge Method = "Walk'n'Merge"
)

// AllMethods is the comparison order used in every table.
var AllMethods = []Method{DBTF, BCPALS, WalkNMerge}

// outcome is what a run that finished reports; budgeted derives the rest
// of a Run (wall time, failure marks, relative error) from it.
type outcome struct {
	// Sim is the simulated cluster time (DBTF only).
	Sim time.Duration
	// Iters is the number of full iterations executed (DBTF and BCP_ALS).
	Iters int
	// Error is the Boolean reconstruction error.
	Error int64
	// Factors holds the fitted factors.
	Factors dbtf.Factors
	// Stats holds DBTF's cluster traffic counters.
	Stats dbtf.ClusterStats
}

// dbtfOutcome adapts a Factorize-shaped return to a run closure's.
func dbtfOutcome(res *dbtf.Result, err error) (outcome, error) {
	if err != nil {
		return outcome{}, err
	}
	return outcome{Sim: res.SimTime, Iters: res.Iterations, Error: res.Error, Factors: res.Factors, Stats: res.Stats}, nil
}

// Run is one execution under the budget: every table cell that reports a
// run is formatted from one of these. The outcome fields are zero unless
// OK.
type Run struct {
	Method Method
	// Wall is the real elapsed time; for budget-exceeded runs it is the
	// budget.
	Wall time.Duration
	// OOT and OOM mark budget and memory failures.
	OOT, OOM bool
	// FailDetail attributes a failure: which method, under which
	// configuration (e.g. the init mode that materialized the quadratic
	// candidate matrix), hit the budget or the memory cap. Empty for
	// successful runs.
	FailDetail string
	// Err holds any other failure.
	Err error
	// Rel is Error / |X|.
	Rel float64
	outcome
}

// OK reports whether the run finished and carries an outcome.
func (r Run) OK() bool { return !r.OOT && !r.OOM && r.Err == nil }

// cell is v for a run that finished and otherwise the mark the paper's
// figures print: the cell a failed run's row leads with.
func (r Run) cell(v string) string {
	switch {
	case r.OOT:
		return "o.o.t."
	case r.OOM:
		return "o.o.m."
	case r.Err != nil:
		return "error"
	default:
		return v
	}
}

// dash is v for a run that finished and "-" otherwise: the cells after the
// one that carries the mark.
func (r Run) dash(format string, v any) string {
	if !r.OK() {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// TimeCell is the wall time or the failure mark.
func (r Run) TimeCell() string { return r.cell(formatDuration(r.Wall)) }

// ErrCell is the given relative error or the failure mark.
func (r Run) ErrCell(v float64) string { return r.cell(fmt.Sprintf("%.3f", v)) }

// SimCell is the simulated time, "-" for a failed run.
func (r Run) SimCell() string { return r.dash("%s", formatDuration(r.Sim)) }

// ErrorCell is the integer reconstruction error, "-" for a failed run.
func (r Run) ErrorCell() string { return r.dash("%d", r.Error) }

// sameOutput marks whether two runs ended in bit-identical factors and
// error: "=" or "DIVERGED", "-" when either has no outcome.
func sameOutput(a, b Run) string {
	switch {
	case !a.OK() || !b.OK():
		return "-"
	case a.Error == b.Error && a.Factors.A.Equal(b.Factors.A) && a.Factors.B.Equal(b.Factors.B) && a.Factors.C.Equal(b.Factors.C):
		return "="
	default:
		return "DIVERGED"
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// budgeted is the one place a run meets the budget: it arms the deadline,
// times run, maps an expired deadline to o.o.t. and ASSO's candidate cap to
// o.o.m. (attributed to method and detail), derives the relative error
// from nnz = |X|, and writes the progress line. cfg has its defaults
// applied (the registry's wrapper does that for every experiment).
func budgeted(cfg Config, method Method, detail string, nnz int, run func(context.Context) (outcome, error)) Run {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
	defer cancel()
	start := time.Now()
	out, err := run(ctx)
	r := Run{Method: method, Wall: time.Since(start)}
	who := strings.TrimSpace(string(method) + " " + detail)
	switch {
	case errors.Is(err, asso.ErrCandidateMemory):
		r.OOM = true
		r.FailDetail = who + ": " + err.Error()
	case err != nil && ctx.Err() != nil:
		r.OOT = true
		r.Wall = cfg.Budget
		r.FailDetail = who + ": time budget exceeded"
	case err != nil:
		r.Err = err
	default:
		r.outcome = out
		if nnz > 0 {
			r.Rel = float64(out.Error) / float64(nnz)
		}
	}
	line := fmt.Sprintf("  %-13s %-10s rel=%s", method, r.TimeCell(), r.ErrCell(r.Rel))
	if r.FailDetail != "" {
		line += "  [" + r.FailDetail + "]"
	}
	cfg.progress("%s", line)
	return r
}

// RunDBTF runs DBTF on x under the budget; Machines, Seed and Tracer
// default to the config's.
func RunDBTF(cfg Config, x *dbtf.Tensor, opt dbtf.Options) Run {
	if opt.Machines == 0 {
		opt.Machines = cfg.Machines
	}
	if opt.Seed == 0 {
		opt.Seed = cfg.Seed
	}
	if opt.Tracer == nil {
		opt.Tracer = cfg.Tracer
	}
	return budgeted(cfg, DBTF, "init="+opt.Init.String(), x.NNZ(), func(ctx context.Context) (outcome, error) {
		return dbtfOutcome(dbtf.Factorize(ctx, x, opt))
	})
}

// MethodOptions carries the per-method tuning a workload needs.
type MethodOptions struct {
	Rank int
	// MergeThreshold for Walk'n'Merge; 0 means its default. The paper sets
	// it to 1 − (destructive noise level).
	MergeThreshold float64
	// InitialSets (L) for DBTF; 0 means 1.
	InitialSets int
	// Init selects DBTF's initialization scheme; the zero value is the
	// fiber-sample default.
	Init dbtf.InitScheme
	// BCPALSInit selects BCP_ALS's per-mode initialization; the zero value
	// is the top-fiber default, BCPALSInitASSO restores the quadratic
	// historical path.
	BCPALSInit dbtf.BCPALSInit
	// MaxCandidateBytes caps BCP_ALS's ASSO candidate matrix; 0 means the
	// 1 GiB default. Only the init ablation scales it down.
	MaxCandidateBytes int64
	// Partitions (N) for DBTF; 0 means the cluster's machine count.
	Partitions int
	// FullIterations forces exactly 10 update sweeps for DBTF and BCP_ALS
	// instead of stopping at convergence, so runtime sweeps measure the
	// same amount of update work per method (random tensors otherwise
	// converge after one or two sweeps).
	FullIterations bool
}

// RunMethod executes one of the paper's three methods on x under the
// config's budget.
func RunMethod(cfg Config, m Method, x *dbtf.Tensor, opt MethodOptions) Run {
	iters := 0 // the method's own default: stop at convergence
	if opt.FullIterations {
		iters = 10
	}
	switch m {
	case DBTF:
		return RunDBTF(cfg, x, dbtf.Options{
			Rank: opt.Rank, Partitions: opt.Partitions, InitialSets: opt.InitialSets,
			Init: opt.Init, MaxIter: iters, MinIter: iters,
		})
	case BCPALS:
		return budgeted(cfg, m, "init="+opt.BCPALSInit.String(), x.NNZ(), func(ctx context.Context) (outcome, error) {
			res, err := dbtf.FactorizeBCPALS(ctx, x, dbtf.BCPALSOptions{
				Rank: opt.Rank, Init: opt.BCPALSInit, MaxIter: iters, MinIter: iters,
				MaxCandidateBytes: opt.MaxCandidateBytes,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{Iters: res.Iterations, Error: res.Error, Factors: dbtf.Factors{A: res.A, B: res.B, C: res.C}}, nil
		})
	case WalkNMerge:
		return budgeted(cfg, m, "", x.NNZ(), func(ctx context.Context) (outcome, error) {
			res, err := dbtf.FactorizeWalkNMerge(ctx, x, dbtf.WalkNMergeOptions{
				Rank: opt.Rank, MergeThreshold: opt.MergeThreshold, Seed: cfg.Seed,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{Error: res.Error, Factors: dbtf.Factors{A: res.A, B: res.B, C: res.C}}, nil
		})
	default:
		return Run{Method: m, Err: fmt.Errorf("experiments: unknown method %q", m)}
	}
}

// Table is one reproduced table or figure, as formatted rows.
type Table struct {
	// ID is the DESIGN.md experiment identifier, e.g. "fig1a"; the
	// registry stamps it, an experiment does not repeat it.
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes records workload parameters and deviations.
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintf(w, "  %s\n", sb.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	// ID is the identifier used by DESIGN.md and cmd/dbtf-bench.
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment.
	Run func(Config) *Table
}

var registry []Experiment

// register adds an experiment. What every experiment would otherwise
// repeat is done here, once: the config's defaults are applied before run
// sees it, and the table run returns is stamped with the id.
func register(id, title string, run func(Config) *Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: func(cfg Config) *Table {
		t := run(cfg.withDefaults())
		t.ID = id
		return t
	}})
}

// All returns every registered experiment in a stable order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
