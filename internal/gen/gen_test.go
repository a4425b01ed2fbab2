package gen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbtf/internal/tensor"
)

func TestRandomDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := Random(rng, 32, 32, 32, 0.05)
	if got := x.Density(); got < 0.045 || got > 0.055 {
		t.Fatalf("density %v far from 0.05", got)
	}
	i, j, k := x.Dims()
	if i != 32 || j != 32 || k != 32 {
		t.Fatalf("dims %dx%dx%d", i, j, k)
	}
}

func TestRandomZeroDensity(t *testing.T) {
	x := Random(rand.New(rand.NewSource(2)), 8, 8, 8, 0)
	if x.NNZ() != 0 {
		t.Fatalf("NNZ = %d", x.NNZ())
	}
}

func TestRandomInvalidDensityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Random(rand.New(rand.NewSource(3)), 4, 4, 4, 1.5)
}

func TestFromFactorsReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, a, b, c := FromFactors(rng, 12, 13, 14, 3, 0.2)
	if !x.Equal(tensor.Reconstruct(a, b, c)) {
		t.Fatal("tensor does not match its factors")
	}
	if tensor.ReconstructError(x, a, b, c) != 0 {
		t.Fatal("noise-free tensor has nonzero error against its factors")
	}
}

func TestAddNoiseAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _, _, _ := FromFactors(rng, 16, 16, 16, 2, 0.25)
	noisy := AddNoise(rng, x, 0.10, 0)
	added := noisy.NNZ() - x.NNZ()
	want := int(0.10 * float64(x.NNZ()))
	if added != want {
		t.Fatalf("added %d ones, want %d", added, want)
	}
	// Additive noise only adds: every original one must survive.
	for _, c := range x.Coords() {
		if !noisy.Get(c.I, c.J, c.K) {
			t.Fatalf("additive noise removed (%d,%d,%d)", c.I, c.J, c.K)
		}
	}
}

func TestAddNoiseDestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, _, _, _ := FromFactors(rng, 16, 16, 16, 2, 0.25)
	noisy := AddNoise(rng, x, 0, 0.20)
	removed := x.NNZ() - noisy.NNZ()
	want := int(0.20 * float64(x.NNZ()))
	if removed != want {
		t.Fatalf("removed %d ones, want %d", removed, want)
	}
	// Destructive noise only removes: no new ones may appear.
	for _, c := range noisy.Coords() {
		if !x.Get(c.I, c.J, c.K) {
			t.Fatalf("destructive noise added (%d,%d,%d)", c.I, c.J, c.K)
		}
	}
}

func TestAddNoiseInvalidPanics(t *testing.T) {
	x := tensor.New(2, 2, 2)
	for _, tc := range [][2]float64{{-0.1, 0}, {0, -0.1}, {0, 1.5}, {math.NaN(), 0}, {0, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", tc)
				}
			}()
			AddNoise(rand.New(rand.NewSource(1)), x, tc[0], tc[1])
		}()
	}
}

// TestAddNoiseRefusesMoreOnesThanZeroCells: additive noise that asks for
// more new ones than the tensor has zero cells is refused, where the draw
// would otherwise never end; asking for exactly the zero cells fills them.
func TestAddNoiseRefusesMoreOnesThanZeroCells(t *testing.T) {
	x := tensor.MustFromCoords(2, 2, 1, []tensor.Coord{{I: 0, J: 0}, {I: 0, J: 1}})
	if err := NoiseError(x, 1.5, 0); err == nil {
		t.Fatal("additive 1.5 of 2 ones into 2 zero cells accepted")
	}
	if full := AddNoise(rand.New(rand.NewSource(1)), x, 1, 0); full.NNZ() != 4 {
		t.Fatalf("additive 1 filled %d of 4 cells", full.NNZ())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AddNoise(rand.New(rand.NewSource(1)), x, 1.5, 0)
}

func TestQuickNoiseXorDistance(t *testing.T) {
	// |X_noisy ⊕ X| must equal exactly (added + removed).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, _, _, _ := FromFactors(rng, 10, 10, 10, 2, 0.3)
		if x.NNZ() < 10 {
			return true
		}
		add, del := 0.15, 0.10
		noisy := AddNoise(rng, x, add, del)
		wantAdd := int(add * float64(x.NNZ()))
		wantDel := int(del * float64(x.NNZ()))
		return x.XorCount(noisy) == wantAdd+wantDel
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPowerLawIndexInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 50)
	for n := 0; n < 10000; n++ {
		i := powerLawIndex(rng, 50, 1.5)
		if i < 0 || i >= 50 {
			t.Fatalf("index %d out of range", i)
		}
		counts[i]++
	}
	// Heavy tail: the first index must be sampled far more often than the
	// middle one.
	if counts[0] < 4*counts[25] {
		t.Fatalf("not heavy-tailed: counts[0]=%d counts[25]=%d", counts[0], counts[25])
	}
}

func TestDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := Datasets(rng, 0.25)
	if len(ds) != 6 {
		t.Fatalf("%d datasets, want 6", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if d.X.NNZ() == 0 {
			t.Errorf("%s: empty tensor", d.Name)
		}
		if names[d.Name] {
			t.Errorf("duplicate dataset %s", d.Name)
		}
		names[d.Name] = true
		if d.Modes == "" {
			t.Errorf("%s: missing mode description", d.Name)
		}
	}
	for _, want := range []string{"Facebook", "DBLP", "CAIDA-DDoS-S", "CAIDA-DDoS-L", "NELL-S", "NELL-L"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
	}
}

func TestDatasetScaling(t *testing.T) {
	small := Facebook(rand.New(rand.NewSource(9)), 0.25)
	large := Facebook(rand.New(rand.NewSource(9)), 0.5)
	si, _, _ := small.X.Dims()
	li, _, _ := large.X.Dims()
	if li <= si {
		t.Fatalf("scale did not grow users: %d vs %d", si, li)
	}
}

func TestDDoSHasDenseSlabs(t *testing.T) {
	// The attack structure must concentrate traffic on few destinations:
	// the busiest destination column should hold a large share of nonzeros.
	d := DDoS(rand.New(rand.NewSource(10)), 0.5, false)
	_, dsts, _ := d.X.Dims()
	byDst := make([]int, dsts)
	for _, c := range d.X.Coords() {
		byDst[c.J]++
	}
	max := 0
	for _, n := range byDst {
		if n > max {
			max = n
		}
	}
	if float64(max) < 0.05*float64(d.X.NNZ()) {
		t.Fatalf("busiest destination holds only %d of %d nonzeros", max, d.X.NNZ())
	}
}
