//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on
// purpose, so a warm slab pool cannot be arranged there.

package sumcache

import (
	"math/rand"
	"runtime"
	"testing"

	"dbtf/internal/boolmat"
)

// TestCacheBuildAllocs pins what the flat layout buys: with a warm pool,
// building and releasing the cache of a 256-row rank-32 factor (three
// tables, 5120 entries, 180 KiB) allocates the Cache, its group slice and
// the six slice headers Release hands the pool — a constant number of
// small objects, nothing per entry.
func TestCacheBuildAllocs(t *testing.T) {
	m := boolmat.RandomFactor(rand.New(rand.NewSource(7)), 256, 32, 0.1)
	cycle := func() { NewFromFactor(m, 0).Release() }
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 12 {
		t.Errorf("build+release allocated %v objects with a warm pool, want at most 12", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 2048 {
		t.Errorf("build+release allocated %d bytes with a warm pool, want at most 2048 (the tables are %d)", perRun, 5120*(4*8+4))
	}
}
