package partition

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"dbtf/internal/gen"
	"dbtf/internal/tensor"
)

// BenchmarkFromTensor times the build from the coordinate list, one mode a
// sub-benchmark, on the benchmark's planted-setup input at seed 1: a 512³
// tensor planted at rank 8 and factor density 0.12 under 10 % additive and
// 5 % destructive noise, about 1.75 M nonzeros, cut into N = 4 partitions
// whose bodies carry for 4 machines. The arenas come from a warm slab pool,
// as a private run's do.
func BenchmarkFromTensor(b *testing.B) {
	const dim, machines = 512, 4
	h := fnv.New64a()
	h.Write([]byte("planted-setup")) // a hash.Hash never fails to write
	planted, _, _, _ := gen.FromFactors(rand.New(rand.NewSource(int64(h.Sum64()>>1))), dim, dim, dim, 8, 0.12)
	x := gen.AddNoise(rand.New(rand.NewSource(1_000_003)), planted, 0.10, 0.05)
	for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
		b.Run(fmt.Sprintf("mode%d", mode), func(b *testing.B) {
			carry := NewCarry([3]int{dim, dim, dim}, mode, machines, machines)
			FromTensor(x, mode, machines, carry).Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromTensor(x, mode, machines, carry).Release()
			}
		})
	}
}
