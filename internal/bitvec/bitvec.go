// Package bitvec implements fixed-length bit vectors packed into 64-bit
// words. Bit vectors are the fundamental carrier of Boolean rows throughout
// DBTF: rows of unfolded tensors, columns of factor matrices, and cached
// Boolean row summations are all BitVecs.
//
// All operations treat the vector as a sequence of bits indexed from 0 to
// Len()-1. Bits beyond Len() inside the last word are kept zero by every
// operation so that popcount-style queries never need masking.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// WordBits is the number of bits per storage word.
	WordBits = 64
	wordMask = WordBits - 1
	wordLog  = 6
)

// BitVec is a fixed-length vector of bits. The zero value is an empty
// vector of length 0; use New to create a vector of a given length.
type BitVec struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector with n bits.
func New(n int) *BitVec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &BitVec{n: n, words: make([]uint64, wordsFor(n))}
}

// Wrap returns a bit vector of n bits backed by the given word slice,
// without copying. The slice must hold exactly the words needed for n bits,
// and any bits beyond n in the final word must be zero. Wrap lets matrices
// expose rows of a flat backing array as BitVecs.
func Wrap(n int, words []uint64) *BitVec {
	if len(words) != wordsFor(n) {
		panic(fmt.Sprintf("bitvec: Wrap needs %d words for %d bits, got %d", wordsFor(n), n, len(words)))
	}
	return &BitVec{n: n, words: words}
}

// FromIndices returns a bit vector of length n with the given bits set.
func FromIndices(n int, idx []int) *BitVec {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// FromIndices32 is FromIndices for int32 index lists, the currency of
// unfolded-tensor rows.
func FromIndices32(n int, idx []int32) *BitVec {
	v := New(n)
	for _, i := range idx {
		v.Set(int(i))
	}
	return v
}

func wordsFor(n int) int { return (n + wordMask) >> wordLog }

// Len returns the number of bits in the vector.
func (v *BitVec) Len() int { return v.n }

// Words exposes the underlying word storage. The slice must not be resized
// by callers; it is shared, not copied.
func (v *BitVec) Words() []uint64 { return v.words }

// Get reports whether bit i is set.
func (v *BitVec) Get(i int) bool {
	return v.words[i>>wordLog]&(1<<(uint(i)&wordMask)) != 0
}

// Set sets bit i to 1.
func (v *BitVec) Set(i int) {
	v.words[i>>wordLog] |= 1 << (uint(i) & wordMask)
}

// Clear sets bit i to 0.
func (v *BitVec) Clear(i int) {
	v.words[i>>wordLog] &^= 1 << (uint(i) & wordMask)
}

// Zero clears every bit.
func (v *BitVec) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Copy returns a deep copy of v.
func (v *BitVec) Copy() *BitVec {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// Or sets v = v | w. The lengths must match.
func (v *BitVec) Or(w *BitVec) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: Or length mismatch %d != %d", v.n, w.n))
	}
	for i, x := range w.words {
		v.words[i] |= x
	}
}

// And sets v = v & w. The lengths must match.
func (v *BitVec) And(w *BitVec) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: And length mismatch %d != %d", v.n, w.n))
	}
	for i, x := range w.words {
		v.words[i] &= x
	}
}

// AndNot sets v = v &^ w. The lengths must match.
func (v *BitVec) AndNot(w *BitVec) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: AndNot length mismatch %d != %d", v.n, w.n))
	}
	for i, x := range w.words {
		v.words[i] &^= x
	}
}

// OnesCount returns the number of set bits (the Boolean "norm" of the
// vector: for a binary vector this equals its squared Frobenius norm).
func (v *BitVec) OnesCount() int {
	c := 0
	for _, x := range v.words {
		c += bits.OnesCount64(x)
	}
	return c
}

// XorCount returns |v ⊕ w|, the Hamming distance between v and w. The
// lengths must match. This is the per-row reconstruction error used by the
// Boolean CP objective (Definition 4).
func (v *BitVec) XorCount(w *BitVec) int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: XorCount length mismatch %d != %d", v.n, w.n))
	}
	c := 0
	for i, x := range w.words {
		c += bits.OnesCount64(v.words[i] ^ x)
	}
	return c
}

// AndCount returns |v ∧ w|, the number of positions set in both vectors.
func (v *BitVec) AndCount(w *BitVec) int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: AndCount length mismatch %d != %d", v.n, w.n))
	}
	c := 0
	for i, x := range w.words {
		c += bits.OnesCount64(v.words[i] & x)
	}
	return c
}

// Equal reports whether v and w have the same length and bits.
func (v *BitVec) Equal(w *BitVec) bool {
	if v.n != w.n {
		return false
	}
	for i, x := range w.words {
		if v.words[i] != x {
			return false
		}
	}
	return true
}

// Any reports whether at least one bit is set.
func (v *BitVec) Any() bool {
	for _, x := range v.words {
		if x != 0 {
			return true
		}
	}
	return false
}

// Indices returns the positions of all set bits in increasing order.
func (v *BitVec) Indices() []int {
	idx := make([]int, 0, v.OnesCount())
	for wi, x := range v.words {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			idx = append(idx, wi<<wordLog+b)
			x &= x - 1
		}
	}
	return idx
}

// Range calls fn for each set bit in increasing order.
func (v *BitVec) Range(fn func(i int)) {
	for wi, x := range v.words {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			fn(wi<<wordLog + b)
			x &= x - 1
		}
	}
}

// Slice returns a new bit vector holding bits [lo, hi) of v.
// It is used to derive sliced cache tables for partial blocks
// (partition block types (1), (2) and (4) in the paper's Figure 5).
func (v *BitVec) Slice(lo, hi int) *BitVec {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: Slice [%d,%d) out of range of %d bits", lo, hi, v.n))
	}
	out := New(hi - lo)
	out.blit(v, lo, hi)
	return out
}

// blit copies bits [lo,hi) of src into v starting at bit 0.
func (v *BitVec) blit(src *BitVec, lo, hi int) {
	n := hi - lo
	shift := uint(lo) & wordMask
	sw := lo >> wordLog
	nw := wordsFor(n)
	if shift == 0 {
		copy(v.words[:nw], src.words[sw:sw+nw])
	} else {
		for i := 0; i < nw; i++ {
			w := src.words[sw+i] >> shift
			if sw+i+1 < len(src.words) {
				w |= src.words[sw+i+1] << (WordBits - shift)
			}
			v.words[i] = w
		}
	}
	v.trim()
}

// trim zeroes bits beyond Len() in the final word.
func (v *BitVec) trim() {
	if r := uint(v.n) & wordMask; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// String renders the vector as a string of '0' and '1' characters, bit 0
// first. Intended for tests and debugging of small vectors.
func (v *BitVec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
