//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on
// purpose, so a warm slab pool cannot be arranged there.

package sumcache

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"dbtf/internal/boolmat"
)

// TestCacheBuildAllocs pins what the flat layout buys: with a warm pool,
// building and releasing the cache of a 256-row rank-32 factor (three
// tables, 5120 entries, 180 KiB) allocates the Cache, its group slice and
// the six slice headers Release hands the pool — a constant number of
// small objects, nothing per entry. A table over a row range of the factor
// (the same entries, three words each) is built by the same code and costs
// the same.
func TestCacheBuildAllocs(t *testing.T) {
	// A collection empties the sync.Pools under the slab; the pin is about
	// a warm one, so none may run while it is taken.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := boolmat.RandomFactor(rand.New(rand.NewSource(7)), 256, 32, 0.1)
	for _, tc := range []struct {
		name   string
		lo, hi int
	}{{"full", 0, 256}, {"rows 37-201", 37, 201}} {
		cycle := func() { NewFromFactorRows(m, tc.lo, tc.hi, 0).Release() }
		if allocs := testing.AllocsPerRun(20, cycle); allocs > 12 {
			t.Errorf("%s: build+release allocated %v objects with a warm pool, want at most 12", tc.name, allocs)
		}
		// A window now and then reads one table re-made from a cold pool. The
		// cause is not established (suspected: sync.Pool's fast slot is
		// per-P, and a goroutine that migrates between a Release and the next
		// build finds it empty), so the window is pinned to one P as
		// AllocsPerRun pins itself and the smallest of three is judged: a
		// cold pool can only read higher than a warm one, while a per-entry
		// regression fails all three.
		const runs = 20
		prev := runtime.GOMAXPROCS(1)
		perRun := ^uint64(0)
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				cycle()
			}
			runtime.ReadMemStats(&after)
			perRun = min(perRun, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		runtime.GOMAXPROCS(prev)
		if perRun > 2048 {
			t.Errorf("%s: build+release allocated %d bytes with a warm pool, want at most 2048", tc.name, perRun)
		}
	}
}
