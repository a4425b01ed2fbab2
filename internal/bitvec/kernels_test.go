package bitvec

import (
	"math/rand"
	"testing"
)

// TestKernelWidthsPanic: a word kernel panics when any one operand — an
// occlusion entry included — is a word longer or a word shorter than the
// others, also an operand its loop does not range over, whose extra word it
// would otherwise ignore. Operands of one width do not panic, and neither
// does GainCountsWords without x.
func TestKernelWidthsPanic(t *testing.T) {
	const words = 3
	for _, k := range []struct {
		name     string
		operands int
		call     func(ws [][]uint64)
	}{
		{"AndCountWords", 2, func(ws [][]uint64) { AndCountWords(ws[0], ws[1]) }},
		{"AndAndNotCountWords", 3, func(ws [][]uint64) { AndAndNotCountWords(ws[0], ws[1], ws[2]) }},
		{"OrCountWords", 3, func(ws [][]uint64) { OrCountWords(ws[0], ws[1], ws[2]) }},
		{"XorCountWords", 2, func(ws [][]uint64) { XorCountWords(ws[0], ws[1]) }},
		{"GainCountsWords", 5, func(ws [][]uint64) { GainCountsWords(ws[0], ws[1], ws[2], ws[3:]) }},
		{"GainCountsWords(nil, …)", 4, func(ws [][]uint64) { GainCountsWords(nil, ws[0], ws[1], ws[2:]) }},
		{"GainWords", 5, func(ws [][]uint64) { GainWords(ws[0], ws[1], ws[2], ws[3:]) }},
	} {
		rng := rand.New(rand.NewSource(1))
		operands := func(odd, n int) [][]uint64 {
			ws := make([][]uint64, k.operands)
			for i := range ws {
				size := words
				if i == odd {
					size = n
				}
				ws[i] = make([]uint64, size)
				for j := range ws[i] {
					ws[i][j] = rng.Uint64()
				}
			}
			return ws
		}
		panics := func(ws [][]uint64) (p bool) {
			defer func() { p = recover() != nil }()
			k.call(ws)
			return false
		}
		if panics(operands(-1, words)) {
			t.Errorf("%s panics on operands of %d words each", k.name, words)
		}
		for odd := 0; odd < k.operands; odd++ {
			for _, n := range []int{words - 1, words + 1} {
				if !panics(operands(odd, n)) {
					t.Errorf("%s: operand %d of %d words beside %d-word operands does not panic", k.name, odd, n, words)
				}
			}
		}
	}
}
