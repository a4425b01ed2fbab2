package dbtf

import (
	"io"
	"math/rand"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/metrics"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// Tensor is a sparse three-way Boolean tensor. Construct with NewTensor,
// TensorFromCoords, RandomTensor, or the Read functions.
type Tensor = tensor.Tensor

// Coord is the coordinate of a nonzero tensor entry.
type Coord = tensor.Coord

// FactorMatrix is an n×R binary matrix with rows stored as uint64 masks.
type FactorMatrix = boolmat.FactorMatrix

// ClusterStats reports the simulated cluster's traffic, execution, and
// fault-tolerance counters.
type ClusterStats = cluster.Stats

// FaultPlan deterministically injects task failures, panics, and machine
// losses into the simulated cluster; see Options.Faults.
type FaultPlan = cluster.FaultPlan

// Tracer serializes a run's structured trace events into a TraceSink; see
// Options.Tracer and package internal/trace for the event schema.
type Tracer = trace.Tracer

// TraceEvent is one entry of a run's structured trace: what a custom
// TraceSink receives, synchronously and in emission order.
type TraceEvent = trace.Event

// TraceSink receives trace events; NewJSONLTrace and NewChromeTrace build
// the two shipped sinks.
type TraceSink = trace.Sink

// NewTracer returns a tracer writing to sink. A nil sink yields a nil
// (disabled) tracer, which every emission site treats as off.
func NewTracer(sink TraceSink) *Tracer { return trace.New(sink) }

// NewJSONLTrace returns a sink encoding one JSON event per line to w: the
// durable analysis format, validated by cmd/dbtf-tracecheck.
func NewJSONLTrace(w io.Writer) TraceSink { return trace.NewJSONL(w) }

// NewChromeTrace returns a sink encoding the Chrome trace_event format to
// w — load the file in chrome://tracing or Perfetto to see per-machine
// stage lanes on the simulated clock.
func NewChromeTrace(w io.Writer) TraceSink { return trace.NewChrome(w) }

// Dataset is a named stand-in for one of the paper's real-world datasets.
type Dataset = gen.Dataset

// NewTensor returns an empty I×J×K tensor.
func NewTensor(i, j, k int) *Tensor { return tensor.New(i, j, k) }

// TensorFromCoords builds a tensor from a coordinate list, validating,
// sorting and deduplicating it.
func TensorFromCoords(i, j, k int, coords []Coord) (*Tensor, error) {
	return tensor.FromCoords(i, j, k, coords)
}

// ReadTensor parses the text interchange format: a header line "I J K"
// followed by one "i j k" line per nonzero.
func ReadTensor(r io.Reader) (*Tensor, error) { return tensor.ReadFrom(r) }

// ReadTensorFile reads a tensor from a file in either the text
// interchange format or the compact binary format (sniffed by magic).
func ReadTensorFile(path string) (*Tensor, error) { return tensor.ReadAnyFile(path) }

// RandomTensor returns an i×j×k tensor with the given expected density.
func RandomTensor(rng *rand.Rand, i, j, k int, density float64) *Tensor {
	return gen.Random(rng, i, j, k, density)
}

// TensorFromRandomFactors draws random rank-r factors of the given density
// and returns the noise-free tensor they generate along with the factors —
// the planted-structure generator of the paper's error experiments.
func TensorFromRandomFactors(rng *rand.Rand, i, j, k, r int, factorDensity float64) (*Tensor, Factors) {
	x, a, b, c := gen.FromFactors(rng, i, j, k, r, factorDensity)
	return x, Factors{A: a, B: b, C: c}
}

// AddNoise returns a copy of x with additive·|X| ones added at random zero
// cells and destructive·|X| existing ones removed.
func AddNoise(rng *rand.Rand, x *Tensor, additive, destructive float64) *Tensor {
	return gen.AddNoise(rng, x, additive, destructive)
}

// StandinDatasets generates synthetic stand-ins for the six real-world
// datasets of the paper's Table III at the given scale factor.
func StandinDatasets(rng *rand.Rand, scale float64) []Dataset {
	return gen.Datasets(rng, scale)
}

// ReadFactorMatrix reads a factor matrix from a file written by
// FactorMatrix.WriteFile (or by `dbtf -output`).
func ReadFactorMatrix(path string) (*FactorMatrix, error) {
	return boolmat.ReadFactorFile(path)
}

// RelativeError returns |x ⊕ X̂| / |x| for a factor set.
func RelativeError(x *Tensor, f Factors) float64 {
	return metrics.RelativeError(x, f.A, f.B, f.C)
}

// PrecisionRecall returns cell-level precision and recall of the
// reconstruction against x.
func PrecisionRecall(x *Tensor, f Factors) (precision, recall float64) {
	return metrics.PrecisionRecall(x, f.A, f.B, f.C)
}

// FactorSimilarity returns the permutation-invariant mean Jaccard
// similarity between two factor sets of equal rank.
func FactorSimilarity(got, want Factors) float64 {
	return metrics.FactorSimilarity(got.A, got.B, got.C, want.A, want.B, want.C)
}
