package bcpals

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dbtf/internal/asso"
	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

func ctxb() context.Context { return context.Background() }

func randomTensor(rng *rand.Rand, i, j, k int, density float64) *tensor.Tensor {
	var coords []tensor.Coord
	for a := 0; a < i; a++ {
		for b := 0; b < j; b++ {
			for c := 0; c < k; c++ {
				if rng.Float64() < density {
					coords = append(coords, tensor.Coord{I: a, J: b, K: c})
				}
			}
		}
	}
	return tensor.MustFromCoords(i, j, k, coords)
}

func TestValidation(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(1)), 4, 4, 4, 0.2)
	cases := []struct {
		name string
		x    *tensor.Tensor
		opt  Options
	}{
		{"nil", nil, Options{Rank: 2}},
		{"rank 0", x, Options{Rank: 0}},
		{"rank 65", x, Options{Rank: 65}},
		{"neg maxiter", x, Options{Rank: 2, MaxIter: -2}},
		{"neg tolerance", x, Options{Rank: 2, Tolerance: -1}},
		{"unknown init", x, Options{Rank: 2, Init: Init(7)}},
		{"empty", tensor.New(3, 0, 3), Options{Rank: 2}},
	}
	for _, tc := range cases {
		if _, err := Decompose(ctxb(), tc.x, tc.opt); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestDecomposeRefusesOverWideTensor: a tensor whose mode-1 unfolding has
// 50,000² columns, beyond int32, is refused with the column guard's error,
// as core refuses it, before any unfolding is built.
func TestDecomposeRefusesOverWideTensor(t *testing.T) {
	_, err := Decompose(ctxb(), tensor.New(2, 50000, 50000), Options{Rank: 2})
	_, guard := tensor.Mode1.Columns(2, 50000, 50000)
	if err == nil || guard == nil || err.Error() != "bcpals: "+guard.Error() {
		t.Fatalf("got %v, want bcpals: %v", err, guard)
	}
}

func TestRecoversSingleBlock(t *testing.T) {
	var coords []tensor.Coord
	for i := 1; i < 6; i++ {
		for j := 2; j < 8; j++ {
			for k := 0; k < 5; k++ {
				coords = append(coords, tensor.Coord{I: i, J: j, K: k})
			}
		}
	}
	x := tensor.MustFromCoords(10, 10, 10, coords)
	res, err := Decompose(ctxb(), x, Options{Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("rank-1 block not recovered: error %d", res.Error)
	}
}

func TestErrorMatchesReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomTensor(rng, 9, 10, 8, 0.15)
	res, err := Decompose(ctxb(), x, Options{Rank: 3, MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := tensor.ReconstructError(x, res.A, res.B, res.C); res.Error != want {
		t.Fatalf("reported error %d != recomputed %d", res.Error, want)
	}
}

func TestImprovesOverEmptyFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := boolmat.RandomFactor(rng, 12, 2, 0.3)
	b := boolmat.RandomFactor(rng, 12, 2, 0.3)
	c := boolmat.RandomFactor(rng, 12, 2, 0.3)
	x := tensor.Reconstruct(a, b, c)
	if x.NNZ() == 0 {
		t.Skip("degenerate planted tensor")
	}
	res, err := Decompose(ctxb(), x, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error >= int64(x.NNZ()) {
		t.Fatalf("error %d no better than trivial %d", res.Error, x.NNZ())
	}
}

func TestFactorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomTensor(rng, 6, 9, 12, 0.1)
	res, err := Decompose(ctxb(), x, Options{Rank: 2, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.A.Rows() != 6 || res.B.Rows() != 9 || res.C.Rows() != 12 {
		t.Fatalf("shapes %d/%d/%d", res.A.Rows(), res.B.Rows(), res.C.Rows())
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	x := randomTensor(rng, 8, 8, 8, 0.1)
	if _, err := Decompose(ctx, x, Options{Rank: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMemoryCapSurfacesAsOOM(t *testing.T) {
	// The quadratic ASSO initialization must fail cleanly when the
	// candidate matrices exceed the cap — mirroring the paper's BCP_ALS
	// O.O.M. rows.
	rng := rand.New(rand.NewSource(6))
	x := randomTensor(rng, 8, 32, 32, 0.05) // unfolded columns: 1024² bits
	_, err := Decompose(ctxb(), x, Options{Rank: 2, Init: InitASSO, MaxCandidateBytes: 1 << 10})
	if !errors.Is(err, asso.ErrCandidateMemory) {
		t.Fatalf("err = %v, want ErrCandidateMemory", err)
	}
}

func TestTopFiberInitSurvivesMemoryCap(t *testing.T) {
	// The same tensor and cap that O.O.M. the ASSO init must sail through
	// under the default top-fiber init: it materializes nothing quadratic,
	// so the cap never applies — the quadratic-blowup fix of ISSUE 10.
	rng := rand.New(rand.NewSource(6))
	x := randomTensor(rng, 8, 32, 32, 0.05)
	res, err := Decompose(ctxb(), x, Options{Rank: 2, MaxCandidateBytes: 1 << 10})
	if err != nil {
		t.Fatalf("topfiber init failed under the memory cap: %v", err)
	}
	if want := tensor.ReconstructError(x, res.A, res.B, res.C); res.Error != want {
		t.Fatalf("reported error %d != recomputed %d", res.Error, want)
	}
}

func TestInitStringAndParseRoundtrip(t *testing.T) {
	for _, in := range []Init{InitTopFiber, InitASSO} {
		got, err := ParseInit(in.String())
		if err != nil || got != in {
			t.Fatalf("ParseInit(%q) = %v, %v; want %v", in.String(), got, err, in)
		}
	}
	if got, err := ParseInit(""); err != nil || got != InitTopFiber {
		t.Fatalf("ParseInit(\"\") = %v, %v; want the topfiber default", got, err)
	}
	if _, err := ParseInit("random"); err == nil {
		t.Fatal("unknown init name parsed without error")
	}
}

func TestASSOInitStillMatchesReference(t *testing.T) {
	// The legacy path must keep producing a valid factorization when the
	// candidate matrices fit: the ablation needs both inits runnable on
	// the same input.
	rng := rand.New(rand.NewSource(8))
	x := randomTensor(rng, 8, 8, 8, 0.15)
	res, err := Decompose(ctxb(), x, Options{Rank: 2, MaxIter: 3, Init: InitASSO})
	if err != nil {
		t.Fatal(err)
	}
	if want := tensor.ReconstructError(x, res.A, res.B, res.C); res.Error != want {
		t.Fatalf("reported error %d != recomputed %d", res.Error, want)
	}
}

func TestConvergesEarlyWithLargeTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomTensor(rng, 8, 8, 8, 0.1)
	res, err := Decompose(ctxb(), x, Options{Rank: 2, MaxIter: 40, Tolerance: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations >= 40 {
		t.Fatalf("converged=%v iterations=%d", res.Converged, res.Iterations)
	}
}
