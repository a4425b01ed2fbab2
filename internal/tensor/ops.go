package tensor

import "fmt"

// Permute returns the tensor with modes reordered: new mode m takes the
// old mode perm[m] (0 = I, 1 = J, 2 = K). perm must be a permutation of
// {0, 1, 2}.
func (t *Tensor) Permute(perm [3]int) *Tensor {
	seen := [3]bool{}
	for _, p := range perm {
		if p < 0 || p > 2 || seen[p] {
			panic(fmt.Sprintf("tensor: Permute %v is not a permutation of {0,1,2}", perm))
		}
		seen[p] = true
	}
	dims := [3]int{t.dimI, t.dimJ, t.dimK}
	coords := make([]Coord, len(t.coords))
	for n, c := range t.coords {
		old := [3]int{c.I, c.J, c.K}
		coords[n] = Coord{I: old[perm[0]], J: old[perm[1]], K: old[perm[2]]}
	}
	sortCoords(coords)
	return &Tensor{
		dimI:   dims[perm[0]],
		dimJ:   dims[perm[1]],
		dimK:   dims[perm[2]],
		coords: coords,
	}
}

// SubTensor returns the tensor restricted to the index ranges
// [i0,i1) × [j0,j1) × [k0,k1), re-indexed to start at zero.
func (t *Tensor) SubTensor(i0, i1, j0, j1, k0, k1 int) *Tensor {
	if i0 < 0 || i1 > t.dimI || i0 > i1 ||
		j0 < 0 || j1 > t.dimJ || j0 > j1 ||
		k0 < 0 || k1 > t.dimK || k0 > k1 {
		panic(fmt.Sprintf("tensor: SubTensor [%d,%d)x[%d,%d)x[%d,%d) outside %dx%dx%d",
			i0, i1, j0, j1, k0, k1, t.dimI, t.dimJ, t.dimK))
	}
	var coords []Coord
	for _, c := range t.coords {
		if c.I >= i0 && c.I < i1 && c.J >= j0 && c.J < j1 && c.K >= k0 && c.K < k1 {
			coords = append(coords, Coord{I: c.I - i0, J: c.J - j0, K: c.K - k0})
		}
	}
	return &Tensor{dimI: i1 - i0, dimJ: j1 - j0, dimK: k1 - k0, coords: coords}
}
