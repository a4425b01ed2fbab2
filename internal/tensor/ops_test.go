package tensor

import "testing"

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
