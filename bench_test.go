// Benchmarks regenerating every table and figure of the paper's
// evaluation section, one sub-benchmark per artifact, plus the
// ablation benches DESIGN.md calls out and micro-benchmarks of the public
// API. Each bench runs the corresponding experiment from
// internal/experiments at a reduced scale so the whole suite completes in
// minutes; cmd/dbtf-bench runs the same experiments at full scale.
//
// The formatted tables are printed once per benchmark (under -bench) so a
// `go test -bench=. -benchmem` log doubles as the reproduction record for
// EXPERIMENTS.md.
package dbtf_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"dbtf"
	"dbtf/internal/experiments"
)

// benchConfig is the reduced-scale configuration the bench suite uses.
func benchConfig() experiments.Config {
	return experiments.Config{
		Budget:   8 * time.Second,
		Machines: 16,
		Seed:     1,
		Scale:    0.35,
	}
}

// BenchmarkExperiments runs every registered experiment as
// BenchmarkExperiments/<id> (Figure 1, Tables I and III, Figures 6 and 7,
// the Section IV-D error sweeps, the Lemma 6-7 traffic check, the
// ablations, the extensions, chaos) and prints each table once. It ranges
// over the registry, so a new experiment is benched without an edit here.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		printed := false // across the b.N ramp-up calls of the closure
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl := e.Run(benchConfig())
				if !printed {
					printed = true
					fmt.Fprintln(os.Stderr)
					tbl.Format(os.Stderr)
				}
			}
		})
	}
}

// Public-API micro-benchmarks: one full DBTF factorization per iteration.

func benchmarkFactorize(b *testing.B, dim int, density float64, rank int) {
	rng := rand.New(rand.NewSource(1))
	x := dbtf.RandomTensor(rng, dim, dim, dim, density)
	b.ReportMetric(float64(x.NNZ()), "nnz")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := dbtf.Factorize(context.Background(), x, dbtf.Options{
			Rank: rank, Machines: 4, MaxIter: 5, MinIter: 5, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFactorizeDim32(b *testing.B)  { benchmarkFactorize(b, 32, 0.05, 8) }
func BenchmarkFactorizeDim64(b *testing.B)  { benchmarkFactorize(b, 64, 0.05, 8) }
func BenchmarkFactorizeDim128(b *testing.B) { benchmarkFactorize(b, 128, 0.02, 8) }

func BenchmarkReconstructError(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, f := dbtf.TensorFromRandomFactors(rng, 96, 96, 96, 8, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.ReconstructError(x) != 0 {
			b.Fatal("unexpected error")
		}
	}
}
