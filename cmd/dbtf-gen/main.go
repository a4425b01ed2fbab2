// Command dbtf-gen generates Boolean tensors: uniform random tensors,
// planted-factor tensors with additive/destructive noise, and the six
// synthetic stand-ins for the paper's Table III real-world datasets.
//
// Usage:
//
//	dbtf-gen -type random -dims 256,256,256 -density 0.01 -o x.tns
//	dbtf-gen -type factors -dims 128,128,128 -rank 10 -factor-density 0.1 \
//	         -additive 0.1 -destructive 0.05 -o noisy.tns [-truth clean.tns]
//	dbtf-gen -type facebook -scale 1.0 -o facebook.tns
//	dbtf-gen -list
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"dbtf"
	"dbtf/internal/gen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbtf-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbtf-gen", flag.ContinueOnError)
	var (
		typ           = fs.String("type", "random", "tensor type: random, factors, facebook, dblp, ddos-s, ddos-l, nell-s, nell-l")
		dims          = fs.String("dims", "64,64,64", "mode dimensions I,J,K (random and factors types)")
		density       = fs.Float64("density", 0.01, "tensor density (random type)")
		rank          = fs.Int("rank", 10, "planted rank (factors type)")
		factorDensity = fs.Float64("factor-density", 0.1, "planted factor density (factors type)")
		additive      = fs.Float64("additive", 0, "additive noise level (factors type)")
		destructive   = fs.Float64("destructive", 0, "destructive noise level (factors type)")
		scale         = fs.Float64("scale", 1.0, "size scale for dataset stand-ins")
		seed          = fs.Int64("seed", 1, "random seed")
		out           = fs.String("o", "", "output tensor file (required unless -list)")
		binaryOut     = fs.Bool("binary", false, "write the compact binary format instead of text")
		truthOut      = fs.String("truth", "", "also write the noise-free tensor here (factors type)")
		list          = fs.Bool("list", false, "list the Table III dataset stand-ins and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*density >= 0 && *density <= 1) {
		return fmt.Errorf("-density %v outside [0, 1]", *density)
	}
	if !(*factorDensity >= 0 && *factorDensity <= 1) {
		return fmt.Errorf("-factor-density %v outside [0, 1]", *factorDensity)
	}
	if !(*scale > 0 && *scale <= math.MaxFloat64) {
		return fmt.Errorf("-scale %v is not a positive finite number", *scale)
	}
	rng := rand.New(rand.NewSource(*seed))

	if *list {
		fmt.Printf("%-14s %-32s %-16s %s\n", "NAME", "MODES", "SHAPE", "NNZ")
		for _, d := range dbtf.StandinDatasets(rng, *scale) {
			i, j, k := d.X.Dims()
			fmt.Printf("%-14s %-32s %-16s %d\n", d.Name, d.Modes, fmt.Sprintf("%dx%dx%d", i, j, k), d.X.NNZ())
		}
		return nil
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-o is required")
	}

	var x *dbtf.Tensor
	switch *typ {
	case "random":
		i, j, k, err := parseDims(*dims)
		if err != nil {
			return err
		}
		x = dbtf.RandomTensor(rng, i, j, k, *density)
	case "factors":
		i, j, k, err := parseDims(*dims)
		if err != nil {
			return err
		}
		truth, _ := dbtf.TensorFromRandomFactors(rng, i, j, k, *rank, *factorDensity)
		if err := gen.NoiseError(truth, *additive, *destructive); err != nil {
			return err
		}
		if *truthOut != "" {
			if err := truth.WriteFile(*truthOut); err != nil {
				return err
			}
			fmt.Printf("wrote %s (noise-free, %d nonzeros)\n", *truthOut, truth.NNZ())
		}
		x = dbtf.AddNoise(rng, truth, *additive, *destructive)
	default:
		// Build only the stand-in asked for: drawing all six to keep one
		// runs out of memory at large scales.
		d, ok := gen.Standin(rng, *typ, *scale)
		if !ok {
			return fmt.Errorf("unknown type %q", *typ)
		}
		x = d.X
	}

	write := x.WriteFile
	if *binaryOut {
		write = x.WriteBinaryFile
	}
	if err := write(*out); err != nil {
		return err
	}
	i, j, k := x.Dims()
	fmt.Printf("wrote %s: %dx%dx%d, %d nonzeros (density %.4g)\n", *out, i, j, k, x.NNZ(), x.Density())
	return nil
}

func parseDims(s string) (i, j, k int, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("dims must be I,J,K, got %q", s)
	}
	vals := make([]int, 3)
	for n, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return 0, 0, 0, fmt.Errorf("invalid dimension %q", p)
		}
		vals[n] = v
	}
	return vals[0], vals[1], vals[2], nil
}
