package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dbtf"
)

// kind is how a workload reaches the engine.
type kind int

const (
	inProcess  kind = iota // dbtf.Factorize on the simulated cluster
	tcpWorkers             // dbtf.Factorize over real dbtf-worker processes
	jobServer              // POST /v1/jobs against serve.New(...).Handler()
)

// workload is one set of inputs and the way they are driven. Every op
// runs exactly Iters iterations (MinIter = MaxIter), so the work per op is
// fixed and relative_error guards the quality.
type workload struct {
	Name string
	Kind kind
	// Dim, Rank and Density shape the planted tensors (Dim³ cells, Rank
	// components of the given factor density).
	Dim, Rank int
	Density   float64
	// Inputs is the number of distinct tensors; Seeds the number of
	// Options.Seed values run against each. An op is one (input, seed)
	// variant; the ops cycle through all Inputs×Seeds of them.
	Inputs, Seeds int
	// Machines is Options.Machines, the worker-process count, or the
	// server's per-job cluster size, by kind.
	Machines int
	Iters    int
	// Limit is the latency an op must finish within to count for
	// ops_within_limit_ratio: about ten times the usual op, because the
	// host's slow phases (see README) alone push single ops to 3–6 times.
	Limit time.Duration
	// Gap is the open loop's fixed interval between submissions
	// (jobServer), and the interval the traced run's serve probe uses.
	Gap time.Duration
}

func (w workload) variants() int { return w.Inputs * w.Seeds }

// A single factorization's relative error swings by ±30 % with the
// initialisation and the noise cells, so quality is a mean over many
// variants: with these counts it spread by 3–5 % across ten seeds. They
// leave each variant one or two repeats in a 15 s window on the 2-core
// reference host; a window never ends before every variant has run once.
var workloads = []workload{
	{Name: "planted-eval", Kind: inProcess, Dim: 256, Rank: 32, Density: 0.10,
		Inputs: 3, Seeds: 16, Machines: 4, Iters: 8, Limit: 1500 * time.Millisecond, Gap: 400 * time.Millisecond},
	{Name: "planted-setup", Kind: inProcess, Dim: 512, Rank: 8, Density: 0.12,
		Inputs: 2, Seeds: 32, Machines: 4, Iters: 2, Limit: 1500 * time.Millisecond, Gap: 400 * time.Millisecond},
	{Name: "tcp-loopback", Kind: tcpWorkers, Dim: 192, Rank: 16, Density: 0.10,
		Inputs: 4, Seeds: 10, Machines: 2, Iters: 4, Limit: 3000 * time.Millisecond, Gap: 100 * time.Millisecond},
	{Name: "serve-openloop", Kind: jobServer, Dim: 160, Rank: 12, Density: 0.10,
		Inputs: 8, Seeds: 16, Machines: 4, Iters: 6, Limit: 1000 * time.Millisecond, Gap: 100 * time.Millisecond},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// variant is one op's identity: which input file and which Options.Seed.
type variant struct {
	Input int
	Seed  int64
}

// inputs is what a run hands the program: tensor files on disk and the
// variants to run against them. The program never sees the generator.
type inputs struct {
	Files    []string
	Variants []variant
}

// Noise levels of every planted tensor: 10 % additive, 5 % destructive, so
// the fit is nontrivial and the error never reaches zero.
const (
	additiveNoise    = 0.10
	destructiveNoise = 0.05
)

// generate writes the workload's input files under dir: Inputs noise
// realisations of one planted tensor. The planted factors come from a
// constant per workload, so the problem's size — nonzeros, partition
// widths, Lemma 6–7 traffic — is the same for every seed and the count
// metrics can carry tight bounds. The seed draws what differs between
// runs: each input's noise cells and every variant's Options.Seed, hence
// every initialisation and convergence path.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(w.Name)) // a hash.Hash never fails to write
	structure := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	planted, _ := dbtf.TensorFromRandomFactors(structure, w.Dim, w.Dim, w.Dim, w.Rank, w.Density)
	in := &inputs{}
	for k := 0; k < w.Inputs; k++ {
		noise := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
		x := dbtf.AddNoise(noise, planted, additiveNoise, destructiveNoise)
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.dbt", w.Name, k))
		if err := x.WriteBinaryFile(path); err != nil {
			return nil, fmt.Errorf("writing input %s: %w", path, err)
		}
		in.Files = append(in.Files, path)
	}
	// Round-robin over inputs first, so consecutive ops never reuse a
	// tensor when there is more than one.
	for s := 0; s < w.Seeds; s++ {
		for k := 0; k < w.Inputs; k++ {
			in.Variants = append(in.Variants, variant{Input: k, Seed: seed*1_000_003 + int64(s*w.Inputs+k) + 1})
		}
	}
	return in, nil
}

// readInputs loads every input file through the public reader, as a user
// of the library would.
func readInputs(files []string) ([]*dbtf.Tensor, error) {
	xs := make([]*dbtf.Tensor, len(files))
	for i, f := range files {
		x, err := dbtf.ReadTensorFile(f)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", f, err)
		}
		xs[i] = x
	}
	return xs, nil
}

// scratchDir creates a fresh directory for one run's files under the
// checkout's .bench_build, so nothing is written outside the checkout.
func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
