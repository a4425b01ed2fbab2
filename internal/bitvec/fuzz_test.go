package bitvec

import (
	"testing"
)

// FuzzBitVec drives a BitVec through a byte-coded op sequence against a
// naive []bool reference model, checking Get, OnesCount, XorCount,
// AndCount, Slice, and the Parse/String round trip agree at every step.
// The word-packed implementations (carry-propagating blits, final-word
// trimming) are exactly the code a byte-level model shakes out.
func FuzzBitVec(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(64), []byte{1, 1, 1, 200, 30})
	f.Add(uint8(65), []byte{})
	f.Add(uint8(200), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := int(size)
		v := New(n)
		w := New(n)
		ref := make([]bool, n)  // model of v
		ref2 := make([]bool, n) // model of w
		if n == 0 {
			return
		}
		for i := 0; i+1 < len(ops); i += 2 {
			pos := int(ops[i+1]) % n
			switch ops[i] % 6 {
			case 0:
				v.Set(pos)
				ref[pos] = true
			case 1:
				v.Clear(pos)
				ref[pos] = false
			case 2:
				w.Set(pos)
				ref2[pos] = true
			case 3:
				v.Or(w)
				for j := range ref {
					ref[j] = ref[j] || ref2[j]
				}
			case 4:
				v.And(w)
				for j := range ref {
					ref[j] = ref[j] && ref2[j]
				}
			case 5:
				v.AndNot(w)
				for j := range ref {
					ref[j] = ref[j] && !ref2[j]
				}
			}
		}

		var ones, xor, and int
		for j := range ref {
			if v.Get(j) != ref[j] {
				t.Fatalf("bit %d = %v, model %v", j, v.Get(j), ref[j])
			}
			if ref[j] {
				ones++
			}
			if ref[j] != ref2[j] {
				xor++
			}
			if ref[j] && ref2[j] {
				and++
			}
		}
		if got := v.OnesCount(); got != ones {
			t.Fatalf("OnesCount = %d, model %d", got, ones)
		}
		if got := v.XorCount(w); got != xor {
			t.Fatalf("XorCount = %d, model %d", got, xor)
		}
		if got := v.AndCount(w); got != and {
			t.Fatalf("AndCount = %d, model %d", got, and)
		}

		// Slice across an unaligned boundary and compare bit by bit.
		lo, hi := n/3, n/3+(n-n/3)/2
		s := v.Slice(lo, hi)
		for j := lo; j < hi; j++ {
			if s.Get(j-lo) != ref[j] {
				t.Fatalf("Slice(%d,%d) bit %d = %v, model %v", lo, hi, j-lo, s.Get(j-lo), ref[j])
			}
		}

		// String renders bit j as its j-th character.
		str := v.String()
		for j := range ref {
			if (str[j] == '1') != ref[j] {
				t.Fatalf("String() char %d = %q, model %v", j, str[j], ref[j])
			}
		}
	})
}
