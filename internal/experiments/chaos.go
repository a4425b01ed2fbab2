package experiments

import (
	"fmt"

	"dbtf"
)

func init() {
	register("chaos", "fault tolerance: makespan under injected failures (Figure-7-style)", ChaosMakespan)
}

// ChaosMakespan reruns the machine-scalability workload under increasing
// injected failure rates and reports how the simulated makespan degrades.
// The Spark property DBTF inherits — lost tasks are re-executed, so
// failures cost time but never correctness — must hold exactly: every row
// checks that the factorization's output is bit-identical to the
// fault-free run.
func ChaosMakespan(cfg Config) *Table {
	dim := scaleDim(256, cfg.Scale)
	_, x := plantedTensor(cfg, dim, fig1Rank, 0.2, 0.05, 0.05)
	t := &Table{
		Title:  fmt.Sprintf("simulated makespan under injected task failures (I=J=K=%d, rank 10, M=%d)", dim, cfg.Machines),
		Header: []string{"failure rate", "sim time", "slowdown", "faults", "retries", "output"},
		Notes: []string{
			"failure rate f injects task losses at f and panics at f/4",
			"injected faults are recovered by per-task retry; 'output =' marks bit-identical factors and error vs the fault-free run",
			"the simulated clock pays each wasted attempt's measured duration plus one stage latency per relaunch",
		},
	}
	var baseline *Run // the fault-free run; nil when it ran out of budget
	for _, rate := range []float64{0, 0.05, 0.1, 0.2} {
		cfg.progress("chaos: failure rate %.2f", rate)
		opt := dbtf.Options{Rank: fig1Rank, MaxIter: 3, MinIter: 3}
		if rate > 0 {
			opt.Faults = &dbtf.FaultPlan{
				Seed:        cfg.Seed,
				FailureRate: rate,
				PanicRate:   rate / 4,
			}
		}
		r := RunDBTF(cfg, x, opt)
		if rate == 0 && r.OK() {
			baseline = &r
		}
		slowdown, output := "-", "-"
		if r.OK() && baseline != nil {
			output = sameOutput(r, *baseline)
			if baseline.Sim > 0 {
				slowdown = fmt.Sprintf("%.2fx", float64(r.Sim)/float64(baseline.Sim))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			r.cell(formatDuration(r.Sim)),
			slowdown,
			r.dash("%d", r.Stats.InjectedFaults),
			r.dash("%d", r.Stats.Retries),
			output,
		})
	}
	return t
}
