// Benchmarks regenerating every table and figure of the paper's
// evaluation section, one testing.B benchmark per artifact, plus the
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
	"sync"
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

var printOnce sync.Map

// runExperiment executes a registered experiment once per benchmark
// iteration and prints its table the first time.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl := e.Run(cfg)
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Fprintln(os.Stderr)
			tbl.Format(os.Stderr)
		}
	}
}

// Figure 1: data scalability of DBTF vs BCP_ALS vs Walk'n'Merge.

func BenchmarkFig1aDimensionality(b *testing.B) { runExperiment(b, "fig1a") }
func BenchmarkFig1bDensity(b *testing.B)        { runExperiment(b, "fig1b") }
func BenchmarkFig1cRank(b *testing.B)           { runExperiment(b, "fig1c") }

// Table I: qualitative scalability summary derived from the sweeps.

func BenchmarkTable1Summary(b *testing.B) { runExperiment(b, "table1") }

// Table III: dataset stand-ins.

func BenchmarkTable3Datasets(b *testing.B) { runExperiment(b, "table3") }

// Figure 6: real-world dataset stand-in comparison.

func BenchmarkFig6RealWorld(b *testing.B) { runExperiment(b, "fig6") }

// Figure 7: machine scalability from the simulated makespan.

func BenchmarkFig7MachineScalability(b *testing.B) { runExperiment(b, "fig7") }

// Section IV-D: reconstruction error sweeps.

func BenchmarkErrFactorDensity(b *testing.B)    { runExperiment(b, "err-density") }
func BenchmarkErrRank(b *testing.B)             { runExperiment(b, "err-rank") }
func BenchmarkErrAdditiveNoise(b *testing.B)    { runExperiment(b, "err-add") }
func BenchmarkErrDestructiveNoise(b *testing.B) { runExperiment(b, "err-del") }

// Lemmas 6-7: traffic-volume validation.

func BenchmarkTrafficValidation(b *testing.B) { runExperiment(b, "traffic") }

// Ablations of DESIGN.md's design-choice index.

func BenchmarkAblationCache(b *testing.B)          { runExperiment(b, "abl-cache") }
func BenchmarkAblationCacheGroupBits(b *testing.B) { runExperiment(b, "abl-groupbits") }
func BenchmarkAblationPartitioning(b *testing.B)   { runExperiment(b, "abl-partitioning") }
func BenchmarkAblationPartitions(b *testing.B)     { runExperiment(b, "abl-partitions") }
func BenchmarkAblationInitialSets(b *testing.B)    { runExperiment(b, "abl-initsets") }

// Extensions: Boolean Tucker, MDL rank selection, Walk'n'Merge MDL.

func BenchmarkExtTucker(b *testing.B)        { runExperiment(b, "ext-tucker") }
func BenchmarkExtRankSelect(b *testing.B)    { runExperiment(b, "ext-rankselect") }
func BenchmarkExtWalkNMergeMDL(b *testing.B) { runExperiment(b, "ext-wnm-mdl") }

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
