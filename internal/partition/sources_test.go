package partition

import (
	"math/rand"
	"slices"
	"testing"

	"dbtf/internal/tensor"
)

// FuzzPartitionSources: fill's two sources agree. For a drawn tensor — its
// shape, density, partition count N and machine count M — every mode, with
// the Carry a run's set-up gives it, is built from the coordinate list
// (FromTensor) and, on every machine, from the bodies AppendBody writes
// (Receive, the mode-1 partitions it received carrying what they carry).
// Every block's nonzero count and form — its row pointers and offsets, or
// its packed words — every partition's
// ReshipBytes and its body must be the same both ways. The seeds hold
// blocks cut by partition boundaries, N above the PVM product count, shapes
// far sparser than their rows × blocks, and the empty tensor.
func FuzzPartitionSources(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), uint8(7), uint8(40), uint8(7), uint8(3))     // cut blocks, carried segments
	f.Add(int64(2), uint8(4), uint8(3), uint8(2), uint8(120), uint8(9), uint8(2))    // N above the products
	f.Add(int64(3), uint8(24), uint8(24), uint8(24), uint8(1), uint8(5), uint8(4))   // sparse: rows × blocks ≫ nnz
	f.Add(int64(4), uint8(5), uint8(6), uint8(7), uint8(0), uint8(3), uint8(2))      // the empty tensor
	f.Add(int64(5), uint8(1), uint8(9), uint8(1), uint8(255), uint8(200), uint8(1))  // every cell, N capped at the columns
	f.Add(int64(6), uint8(16), uint8(20), uint8(12), uint8(12), uint8(13), uint8(4)) // dense and sparse blocks side by side
	f.Fuzz(func(t *testing.T, seed int64, di, dj, dk, density, n, machines uint8) {
		i, j, k := 1+int(di)%24, 1+int(dj)%24, 1+int(dk)%24
		N, M := 1+int(n)%(2*max(i, j, k)+4), 1+int(machines)%4
		x := randomTensor(rand.New(rand.NewSource(seed)), i, j, k, float64(density)/255)
		dims := [3]int{i, j, k}
		srcs := make([]*Columns, M)
		defer func() {
			for _, src := range srcs {
				src.Release()
			}
		}()
		for m := range dims {
			mode := tensor.Mode(m + 1)
			carry := NewCarry(dims, mode, M, N)
			coords := FromTensor(x, mode, N, carry)
			for home := 0; home < M; home++ {
				var body []byte
				for pi := home; pi < len(coords.Parts); pi += M {
					body = coords.AppendBody(body, pi)
				}
				got, rest, err := Receive(dims, mode, N, home, M, carry, srcs[home], body)
				if err != nil || len(rest) != 0 {
					t.Fatalf("%dx%dx%d N=%d M=%d mode %d machine %d: %v, %d bytes left", i, j, k, N, M, m+1, home, err, len(rest))
				}
				if !samePartitioned(got, coords) || got.ShuffleBytes != int64(len(body)) {
					t.Fatalf("%dx%dx%d N=%d M=%d mode %d machine %d: the received partitions differ from the built ones", i, j, k, N, M, m+1, home)
				}
				if m == 0 {
					srcs[home] = got.Transpose()
				}
				got.Release()
			}
			coords.Release()
		}
	})
}

// samePartitioned reports whether every partition a holds is b's too, with
// the same bounds, blocks — nonzero counts, row pointers, offsets, packed
// words — and body,
// byte for byte and as ReshipBytes counts it.
func samePartitioned(a, b *Partitioned) bool {
	if len(a.Parts) != len(b.Parts) {
		return false
	}
	for pi, p := range a.Parts {
		if p == nil {
			continue
		}
		q := b.Parts[pi]
		if q == nil || p.Lo != q.Lo || p.Hi != q.Hi || len(p.Blocks) != len(q.Blocks) || a.ReshipBytes(pi) != b.ReshipBytes(pi) ||
			!slices.Equal(a.AppendBody(nil, pi), b.AppendBody(nil, pi)) {
			return false
		}
		for bi := range p.Blocks {
			x := &p.Blocks[bi]
			y := &q.Blocks[bi]
			if x.PVM != y.PVM || x.Lo != y.Lo || x.Hi != y.Hi || x.InnerLo != y.InnerLo || x.Type != y.Type ||
				x.nnz != y.nnz || x.stride != y.stride ||
				!slices.Equal(x.rowPtr, y.rowPtr) || !slices.Equal(x.bits, y.bits) || !slices.Equal(x.denseWords, y.denseWords) {
				return false
			}
		}
	}
	return true
}
