// Package fixtures seeds the wirebound analyzer's true positives and
// accepted negatives. The file parses but is never compiled.
package fixtures

import (
	"encoding/binary"

	core "dbtf/internal/core"
	notaudited "dbtf/internal/notaudited"
)

const maxRows = 1 << 20

// badUncheckedMake allocates whatever the header says.
func badUncheckedMake(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	return make([]byte, n) // want `make sized by a wire-decoded value`
}

// badUncheckedCap hides the decoded size in the capacity.
func badUncheckedCap(b []byte) []int {
	n := binary.BigEndian.Uint64(b)
	return make([]int, 0, n) // want `make sized by a wire-decoded value`
}

// goodCheckedMake validates before allocating.
func goodCheckedMake(b []byte) ([]byte, bool) {
	n := binary.BigEndian.Uint32(b)
	if n > maxRows {
		return nil, false
	}
	return make([]byte, n), true
}

// badDerivedUnchecked launders the decoded value through arithmetic.
func badDerivedUnchecked(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	words := n * 8
	return make([]byte, words) // want `make sized by a wire-decoded value`
}

// goodDerivedChecked derives only from a checked value: the derived
// size is born checked.
func goodDerivedChecked(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	if n > maxRows {
		return nil
	}
	words := n * 8
	return make([]byte, words)
}

// badAppendLoop grows under a wire-controlled loop bound.
func badAppendLoop(b []byte) []uint64 {
	n := binary.BigEndian.Uint32(b)
	var out []uint64
	for i := uint32(0); i < n; i++ {
		out = append(out, 0) // want `append grows under a loop bounded by a wire-decoded value`
	}
	return out
}

// goodAppendLoopChecked bounds the count first; the loop condition then
// ranges over a checked value.
func goodAppendLoopChecked(b []byte) []uint64 {
	n := binary.BigEndian.Uint32(b)
	if n > maxRows {
		return nil
	}
	var out []uint64
	for i := uint32(0); i < n; i++ {
		out = append(out, 0)
	}
	return out
}

// badClosureSource reads through the decode-closure idiom; the closure's
// results are as wire-controlled as binary's.
func badClosureSource(br byteReader) []uint64 {
	read := func() (uint64, error) {
		return binary.ReadUvarint(br)
	}
	count, _ := read()
	return make([]uint64, count) // want `make sized by a wire-decoded value`
}

// goodIndexTaintChecked stores decoded values into a slice (tainting the
// slice) and checks an element before allocating from it.
func goodIndexTaintChecked(br byteReader) []byte {
	read := func() (uint64, error) {
		return binary.ReadUvarint(br)
	}
	dims := [3]uint64{}
	for i := 0; i < 3; i++ {
		v, _ := read()
		dims[i] = v
	}
	if dims[0] > maxRows {
		return nil
	}
	return make([]byte, dims[0])
}

// badIndexTaintUnchecked allocates straight from the tainted slice.
func badIndexTaintUnchecked(br byteReader) []byte {
	read := func() (uint64, error) {
		return binary.ReadUvarint(br)
	}
	dims := [3]uint64{}
	v, _ := read()
	dims[0] = v
	return make([]byte, dims[0]) // want `make sized by a wire-decoded value`
}

// badSliceVarint sizes from a count decoded off a slice, unchecked.
func badSliceVarint(b []byte) []int {
	n, _ := binary.Uvarint(b)
	return make([]int, n) // want `make sized by a wire-decoded value`
}

// goodSliceVarint holds the count to what the input can back first.
func goodSliceVarint(b []byte) []int {
	n, k := binary.Uvarint(b)
	if n > uint64(len(b)-k)/3 {
		return nil
	}
	return make([]int, n)
}

// goodAnnotated documents where the real bound lives.
func goodAnnotated(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	//dbtf:bounded caller validated n against the frame header in ReadFrame
	return make([]byte, n)
}

// badBareEscape has the escape hatch without a reason.
func badBareEscape(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	//dbtf:bounded
	return make([]byte, n) // want `requires a reason`
}

// goodUntainted sizes from trusted lengths, not the wire.
func goodUntainted(b []byte) []byte {
	return make([]byte, len(b))
}

// badUnauditedDecode calls a Decode entry point of a module-internal
// package outside wirebound's Scope.
func badUnauditedDecode(b []byte) {
	notaudited.DecodeBlob(b) // want `decode entry point outside wirebound's audited packages`
}

// goodAuditedDecode calls one inside Scope: the callee is checked where
// it is declared.
func goodAuditedDecode(b []byte) {
	core.DecodeHeader(b)
	notaudited.Encode(b)
}

type byteReader interface{ ReadByte() (byte, error) }
