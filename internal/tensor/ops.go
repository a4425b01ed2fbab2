package tensor

import "fmt"

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
