package sumcache

import (
	"math/rand"
	"runtime"
	"testing"

	"dbtf/internal/boolmat"
)

// TestCacheBuildAllocs pins what the flat layout buys: with a warm pool,
// building and releasing the cache of a 256-row rank-32 factor (three
// tables, 5120 entries, 180 KiB) allocates the Cache and its group slice
// — a constant number of small objects, nothing per entry. A table over a
// row range of the factor (the same entries, three words each) is built by
// the same code and costs the same.
func TestCacheBuildAllocs(t *testing.T) {
	m := boolmat.RandomFactor(rand.New(rand.NewSource(7)), 256, 32, 0.1)
	for _, tc := range []struct {
		name   string
		lo, hi int
	}{{"full", 0, 256}, {"rows 37-201", 37, 201}} {
		cycle := func() { NewFromFactorRows(m, tc.lo, tc.hi, 0).Release() }
		if allocs := testing.AllocsPerRun(20, cycle); allocs > 12 {
			t.Errorf("%s: build+release allocated %v objects with a warm pool, want at most 12", tc.name, allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if perRun > 2048 {
			t.Errorf("%s: build+release allocated %d bytes with a warm pool, want at most 2048", tc.name, perRun)
		}
	}
}
