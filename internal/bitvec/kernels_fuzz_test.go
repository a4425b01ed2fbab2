package bitvec

import (
	"testing"
)

// bitsFromBytes builds an n-bit vector and its []bool model from a byte
// string (bit j of the vector is bit j%8 of byte j/8, zero past the data).
func bitsFromBytes(n int, data []byte) (*BitVec, []bool) {
	v := New(n)
	ref := make([]bool, n)
	for j := 0; j < n; j++ {
		if j/8 < len(data) && data[j/8]&(1<<uint(j%8)) != 0 {
			v.Set(j)
			ref[j] = true
		}
	}
	return v, ref
}

// FuzzKernels checks every fused counting kernel — the raw word-slice forms
// the delta evaluation uses — against a []bool model: AndCountWords,
// AndNotCountWords, AndAndNotCountWords, XorCountWords, OrCountWords, and
// GainCountsWords with zero, one, and two occluders.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(7), []byte{0xff}, []byte{0x0f}, []byte{0xaa})
	f.Add(uint8(64), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5}, []byte{})
	f.Add(uint8(65), []byte{}, []byte{0xff, 0xff}, []byte{1})
	f.Add(uint8(200), []byte{0xde, 0xad, 0xbe, 0xef}, []byte{0xca, 0xfe}, []byte{0xba, 0xbe})
	f.Fuzz(func(t *testing.T, size uint8, d1, d2, d3 []byte) {
		n := int(size)
		if n == 0 {
			return
		}
		x, xr := bitsFromBytes(n, d1)
		a, ar := bitsFromBytes(n, d2)
		b, br := bitsFromBytes(n, d3)

		var andNot, and, xor, andAndNot int
		for j := 0; j < n; j++ {
			if xr[j] && !ar[j] {
				andNot++
			}
			if xr[j] && ar[j] {
				and++
			}
			if xr[j] != ar[j] {
				xor++
			}
			if xr[j] && ar[j] && !br[j] {
				andAndNot++
			}
		}
		if got := AndCountWords(x.Words(), a.Words()); got != and {
			t.Fatalf("AndCountWords = %d, model %d", got, and)
		}
		if got := AndNotCountWords(x.Words(), a.Words()); got != andNot {
			t.Fatalf("AndNotCountWords = %d, model %d", got, andNot)
		}
		if got := XorCountWords(x.Words(), a.Words()); got != xor {
			t.Fatalf("XorCountWords = %d, model %d", got, xor)
		}
		if got := AndAndNotCountWords(x.Words(), a.Words(), b.Words()); got != andAndNot {
			t.Fatalf("AndAndNotCountWords = %d, model %d", got, andAndNot)
		}

		// OrCountWords against the three BitVec passes it fuses (Copy, Or,
		// OnesCount): into a dirty destination, and in place.
		or := x.Copy()
		or.Or(a)
		dst := make([]uint64, len(x.Words()))
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		if got := OrCountWords(dst, x.Words(), a.Words()); got != or.OnesCount() || !Wrap(n, dst).Equal(or) {
			t.Fatalf("OrCountWords = %d, %v; BitVec reference %d, %v", got, Wrap(n, dst), or.OnesCount(), or)
		}
		inPlace := x.Copy()
		if got := OrCountWords(inPlace.Words(), inPlace.Words(), a.Words()); got != or.OnesCount() || !inPlace.Equal(or) {
			t.Fatalf("OrCountWords in place = %d, %v; BitVec reference %d, %v", got, inPlace, or.OnesCount(), or)
		}

		// GainCountsWords: D = (a &^ b) minus occluders; model per bit.
		o2, o2r := bitsFromBytes(n, append(append([]byte{}, d3...), d1...))
		for occCount := 0; occCount <= 2; occCount++ {
			occ := make([][]uint64, 0, 2)
			occRef := make([][]bool, 0, 2)
			if occCount >= 1 {
				occ = append(occ, x.Words())
				occRef = append(occRef, xr)
			}
			if occCount >= 2 {
				occ = append(occ, o2.Words())
				occRef = append(occRef, o2r)
			}
			wantGain, wantOverlap := 0, 0
			for j := 0; j < n; j++ {
				d := ar[j] && !br[j]
				for _, or := range occRef {
					d = d && !or[j]
				}
				if d {
					wantGain++
					if xr[j] {
						wantOverlap++
					}
				}
			}
			gain, overlap := GainCountsWords(x.Words(), a.Words(), b.Words(), occ)
			if gain != wantGain || overlap != wantOverlap {
				t.Fatalf("GainCountsWords(occ=%d) = (%d,%d), model (%d,%d)",
					occCount, gain, overlap, wantGain, wantOverlap)
			}
			gainOnly, zero := GainCountsWords(nil, a.Words(), b.Words(), occ)
			if gainOnly != wantGain || zero != 0 {
				t.Fatalf("GainCountsWords(nil, occ=%d) = (%d,%d), model (%d,0)",
					occCount, gainOnly, zero, wantGain)
			}
		}
	})
}
