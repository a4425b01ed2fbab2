package dbtf_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"dbtf"
)

// Example_quickstart plants a rank-3 Boolean structure, adds 10% additive
// and 5% destructive noise — the generator of the paper's error
// experiments — and factorizes it at the planted rank. DBTF recovers the
// noise-free tensor exactly; each component is a Boolean rank-1 block, the
// index sets where columns r of A, B and C are 1.
func Example_quickstart() {
	rng := rand.New(rand.NewSource(42))
	clean, planted := dbtf.TensorFromRandomFactors(rng, 64, 64, 64, 3, 0.15)
	x := dbtf.AddNoise(rng, clean, 0.10, 0.05)
	i, j, k := x.Dims()
	fmt.Printf("input: %dx%dx%d Boolean tensor, %d nonzeros (density %.4f)\n",
		i, j, k, x.NNZ(), x.Density())

	res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 3, Machines: 4, InitialSets: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dbtf: %d iterations, reconstruction error %d (relative %.3f)\n",
		res.Iterations, res.Error, res.RelativeError)
	fmt.Printf("recovery vs noise-free truth: %.3f relative error\n",
		dbtf.RelativeError(clean, res.Factors))
	fmt.Printf("component similarity to planted factors: %.2f\n",
		dbtf.FactorSimilarity(res.Factors, planted))
	for r := 0; r < 3; r++ {
		fmt.Printf("component %d spans %d x %d x %d indices\n", r,
			res.A.Column(r).OnesCount(), res.B.Column(r).OnesCount(), res.C.Column(r).OnesCount())
	}
	// Output:
	// input: 64x64x64 Boolean tensor, 2112 nonzeros (density 0.0081)
	// dbtf: 2 iterations, reconstruction error 301 (relative 0.143)
	// recovery vs noise-free truth: 0.000 relative error
	// component similarity to planted factors: 1.00
	// component 0 spans 8 x 11 x 5 indices
	// component 1 spans 13 x 10 x 8 indices
	// component 2 spans 6 x 9 x 10 indices
}

// Example_intrusion factorizes a CAIDA-DDoS-like (source IP, destination
// IP, time) tensor and reads the components as traffic events, the
// network-intrusion analysis the paper motivates. A DDoS attack is a
// Boolean rank-1 block: many sources (the A-column) hitting few
// destinations (B) during a short window (C).
func Example_intrusion() {
	rng := rand.New(rand.NewSource(5))
	var trace dbtf.Dataset
	for _, d := range dbtf.StandinDatasets(rng, 0.5) {
		if d.Name == "CAIDA-DDoS-S" {
			trace = d
		}
	}
	srcs, dsts, ticks := trace.X.Dims()
	fmt.Printf("traffic trace: %d sources x %d destinations x %d ticks, %d packets\n",
		srcs, dsts, ticks, trace.X.NNZ())

	const rank = 6
	res, err := dbtf.Factorize(context.Background(), trace.X, dbtf.Options{Rank: rank, Machines: 4, InitialSets: 4, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factorized at rank %d: error %d (relative %.3f)\n\n", rank, res.Error, res.RelativeError)

	type event struct {
		r, attackers, packets int
		victims, window       []int
	}
	var events []event
	for r := 0; r < rank; r++ {
		e := event{
			r:         r,
			attackers: res.A.Column(r).OnesCount(),
			victims:   res.B.Column(r).Indices(),
			window:    res.C.Column(r).Indices(),
		}
		for _, s := range res.A.Column(r).Indices() {
			for _, d := range e.victims {
				for _, t := range e.window {
					if trace.X.Get(s, d, t) {
						e.packets++
					}
				}
			}
		}
		if e.attackers > 0 && len(e.victims) > 0 && len(e.window) > 0 {
			events = append(events, e)
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].packets > events[b].packets })

	fmt.Println("detected traffic events (largest first):")
	for _, e := range events {
		kind := "background chatter"
		if e.attackers >= srcs/8 && len(e.victims) <= 4 && len(e.window) <= ticks/2 {
			kind = "DDoS ATTACK"
		}
		fmt.Printf("  component %d [%s]: %d sources -> destinations %v during ticks %d..%d (%d packets)\n",
			e.r, kind, e.attackers, e.victims, e.window[0], e.window[len(e.window)-1], e.packets)
	}
	// Output:
	// traffic trace: 128 sources x 128 destinations x 32 ticks, 1317 packets
	// factorized at rank 6: error 810 (relative 0.615)
	//
	// detected traffic events (largest first):
	//   component 1 [DDoS ATTACK]: 48 sources -> destinations [77] during ticks 6..11 (229 packets)
	//   component 3 [DDoS ATTACK]: 48 sources -> destinations [43] during ticks 10..15 (222 packets)
	//   component 4 [DDoS ATTACK]: 34 sources -> destinations [119] during ticks 10..15 (164 packets)
	//   component 2 [DDoS ATTACK]: 21 sources -> destinations [119] during ticks 10..15 (80 packets)
	//   component 0 [background chatter]: 1 sources -> destinations [88] during ticks 13..13 (1 packets)
	//   component 5 [background chatter]: 1 sources -> destinations [117] during ticks 26..26 (1 packets)
}

// ExampleFactorize decomposes a small Boolean tensor holding one dense
// block; rank 1 suffices for an exact fit.
func ExampleFactorize() {
	var coords []dbtf.Coord
	for i := 0; i < 4; i++ {
		for j := 2; j < 6; j++ {
			for k := 1; k < 5; k++ {
				coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
			}
		}
	}
	x, err := dbtf.TensorFromCoords(8, 8, 8, coords)
	if err != nil {
		log.Fatal(err)
	}

	res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{
		Rank:        1,
		Machines:    2,
		InitialSets: 2,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("error:", res.Error)
	fmt.Println("rows of the block:", res.A.Column(0).Indices())
	// Output:
	// error: 0
	// rows of the block: [0 1 2 3]
}

// ExampleSelectRank lets minimum description length choose the rank for a
// tensor with two planted blocks.
func ExampleSelectRank() {
	var coords []dbtf.Coord
	addBlock := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := lo; j < hi; j++ {
				for k := lo; k < hi; k++ {
					coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
				}
			}
		}
	}
	addBlock(0, 6)
	addBlock(8, 14)
	x, err := dbtf.TensorFromCoords(14, 14, 14, coords)
	if err != nil {
		log.Fatal(err)
	}

	sel, err := dbtf.SelectRank(context.Background(), x, dbtf.Options{
		Machines: 2, InitialSets: 4, Seed: 1,
	}, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected rank:", sel.Rank)
	fmt.Println("exact fit:", sel.Result.Error == 0)
	// Output:
	// selected rank: 2
	// exact fit: true
}

// ExampleFactors_ReconstructError scores a factor set against the tensor
// it was planted from.
func ExampleFactors_ReconstructError() {
	var coords []dbtf.Coord
	for i := 0; i < 3; i++ {
		coords = append(coords, dbtf.Coord{I: i, J: i, K: i})
	}
	x, err := dbtf.TensorFromCoords(3, 3, 3, coords)
	if err != nil {
		log.Fatal(err)
	}
	// The superdiagonal is rank 3: one component per diagonal cell.
	res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{
		Rank: 3, Machines: 2, InitialSets: 4, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("error:", res.ReconstructError(x))
	// Output:
	// error: 0
}
