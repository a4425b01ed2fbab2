// Word-parallel counting kernels. DBTF's hot loops combine several bit
// vectors and need only a popcount of the combination; these kernels fuse
// the Boolean operation and the count into one pass over the words, so no
// intermediate vector is materialized and no allocation happens. They are
// the bit-level-parallel primitives the factor-update delta evaluation and
// the adaptive dense row kernels are built on.
//
// They operate on raw word storage (as returned by Words) so callers that
// already hold words — packed block rows, cache entries — skip the BitVec
// wrapper entirely. All operands of one call must have the
// same word count; bits beyond Len() are zero by the package invariant, so
// counts never need masking.
package bitvec

import "math/bits"

// AndCountWords returns popcount(a ∧ b) over raw word slices.
//
//dbtf:noalloc
func AndCountWords(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

// AndNotCountWords returns popcount(a &^ b) over raw word slices.
//
//dbtf:noalloc
func AndNotCountWords(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x &^ b[i])
	}
	return c
}

// AndAndNotCountWords returns popcount(x ∧ (a &^ b)) over raw word
// slices: the overlap of x with the region a adds beyond b. This is the
// dense single-group delta kernel.
//
//dbtf:noalloc
func AndAndNotCountWords(x, a, b []uint64) int {
	c := 0
	for i, w := range x {
		c += bits.OnesCount64(w & a[i] &^ b[i])
	}
	return c
}

// OrCountWords stores a ∨ b into dst and returns its popcount, in one
// pass. dst may alias a or b. This is the sum-cache table build: an entry
// is a previously built entry ORed with one column, and its popcount is
// cached beside it.
//
//dbtf:noalloc
func OrCountWords(dst, a, b []uint64) int {
	c := 0
	for i := range dst {
		w := a[i] | b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// XorCountWords returns popcount(a ⊕ b) over raw word slices: the Hamming
// distance, i.e. the Boolean reconstruction error of a dense row.
//
//dbtf:noalloc
func XorCountWords(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x ^ b[i])
	}
	return c
}

// GainCountsWords returns (|D|, |x ∧ D|) where D = (w1 &^ w0) &^ occ[0]
// &^ occ[1] ... — the occluded gain region of a multi-group delta. x may
// be nil, in which case only |D| is computed and the second result is 0.
//
//dbtf:noalloc
func GainCountsWords(x, w1, w0 []uint64, occ [][]uint64) (gain, overlap int) {
	for i, hi := range w1 {
		d := hi &^ w0[i]
		if d == 0 {
			continue
		}
		for _, o := range occ {
			d &^= o[i]
		}
		gain += bits.OnesCount64(d)
		if x != nil {
			overlap += bits.OnesCount64(x[i] & d)
		}
	}
	return gain, overlap
}
