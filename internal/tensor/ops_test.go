package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPermute(t *testing.T) {
	x := MustFromCoords(2, 3, 4, []Coord{{1, 2, 3}, {0, 1, 2}})
	p := x.Permute([3]int{2, 0, 1}) // new I = old K, new J = old I, new K = old J
	i, j, k := p.Dims()
	if i != 4 || j != 2 || k != 3 {
		t.Fatalf("permuted dims %dx%dx%d", i, j, k)
	}
	if !p.Get(3, 1, 2) || !p.Get(2, 0, 1) {
		t.Fatalf("permuted coords wrong: %v", p.Coords())
	}
}

func TestPermuteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomTensor(rng, 4, 5, 6, 0.2)
	if !x.Permute([3]int{0, 1, 2}).Equal(x) {
		t.Fatal("identity permutation changed the tensor")
	}
}

func TestPermuteInvalidPanics(t *testing.T) {
	x := New(2, 2, 2)
	for _, perm := range [][3]int{{0, 0, 1}, {0, 1, 3}, {-1, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) did not panic", perm)
				}
			}()
			x.Permute(perm)
		}()
	}
}

func TestQuickPermuteRoundtrip(t *testing.T) {
	// Applying a permutation and its inverse restores the tensor.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomTensor(rng, rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1, 0.3)
		perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		perm := perms[rng.Intn(len(perms))]
		var inv [3]int
		for newMode, oldMode := range perm {
			inv[oldMode] = newMode
		}
		return x.Permute(perm).Permute(inv).Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSubTensor(t *testing.T) {
	x := MustFromCoords(4, 4, 4, []Coord{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}})
	sub := x.SubTensor(1, 3, 1, 3, 1, 3)
	i, j, k := sub.Dims()
	if i != 2 || j != 2 || k != 2 {
		t.Fatalf("sub dims %dx%dx%d", i, j, k)
	}
	if sub.NNZ() != 2 || !sub.Get(0, 0, 0) || !sub.Get(1, 1, 1) {
		t.Fatalf("sub coords %v", sub.Coords())
	}
}

func TestSubTensorOutOfRangePanics(t *testing.T) {
	x := New(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	x.SubTensor(0, 3, 0, 2, 0, 2)
}
