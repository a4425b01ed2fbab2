package dbtf_test

import (
	"context"
	"testing"

	"dbtf"
)

func TestFactorizeTuckerSharedStructure(t *testing.T) {
	// Two components sharing the same mode-1 column: Tucker merges them
	// into a single core slice and still fits exactly.
	var coords []dbtf.Coord
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 5; k++ {
				coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
			}
		}
		for j := 6; j < 11; j++ {
			for k := 6; k < 11; k++ {
				coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
			}
		}
	}
	x, err := dbtf.TensorFromCoords(12, 12, 12, coords)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbtf.FactorizeTucker(context.Background(), x, dbtf.TuckerOptions{
		CPRank: 2, MergeThreshold: 0.99, Machines: 2, InitialSets: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("Tucker error %d, want 0", res.Error)
	}
	p, q, s := res.Core.Dims()
	if p != 1 || q != 2 || s != 2 {
		t.Fatalf("core dims %dx%dx%d, want 1x2x2 (mode-1 columns merged)", p, q, s)
	}
	if dbtf.TuckerReconstructError(x, res) != 0 {
		t.Fatal("TuckerReconstructError disagrees")
	}
	if !dbtf.TuckerReconstruct(res).Equal(x) {
		t.Fatal("TuckerReconstruct differs from x")
	}
}

func TestFactorizeTuckerValidation(t *testing.T) {
	x := dbtf.NewTensor(4, 4, 4)
	if _, err := dbtf.FactorizeTucker(context.Background(), x, dbtf.TuckerOptions{CPRank: 0}); err == nil {
		t.Fatal("CPRank 0 accepted")
	}
	if _, err := dbtf.FactorizeTucker(context.Background(), x, dbtf.TuckerOptions{CPRank: 2, Machines: -1}); err == nil {
		t.Fatal("Machines -1 accepted")
	}
}

func TestFactorizeTuckerNeverWorseThanCP(t *testing.T) {
	var coords []dbtf.Coord
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			for k := 0; k < 4; k++ {
				coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
			}
		}
	}
	x, err := dbtf.TensorFromCoords(12, 12, 12, coords)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbtf.FactorizeTucker(context.Background(), x, dbtf.TuckerOptions{
		CPRank: 3, Machines: 2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error > res.CPError {
		t.Fatalf("Tucker %d worse than CP %d", res.Error, res.CPError)
	}
}
