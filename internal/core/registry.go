package core

import (
	"sync"

	"dbtf/internal/boolmat"
	"dbtf/internal/sumcache"
)

// machineRegistry shares row-summation caches among all partitions placed
// on one logical machine. The paper's Lemma 4 (step i) and Lemma 5 count
// the cache build time and memory once per machine — N partitions on the
// same machine query one table, they do not each build their own. The
// registry realizes that accounting: the full-size cache for a caching
// matrix is built by whichever of the machine's tasks gets there first and
// reused by the rest, and it survives across stages for as long as the
// matrix is unchanged. That cross-stage validity is what lets the B-update
// and C-update share one cache over A, and the next iteration's A-update
// reuse the cache totalError built over B.
//
// Tasks placed on one machine may run concurrently in real time (the
// goroutine pool is decoupled from the machine count), so the registry is
// internally synchronized; cache contents are immutable once built.
type machineRegistry struct {
	mu sync.Mutex
	//dbtf:guardedby mu
	entries map[registryKey]*machineCache
}

// registryKey identifies a cache derivation: the caching matrix and its
// mutation version. A version mismatch means the matrix changed since the
// cache was built and the entry is stale.
type registryKey struct {
	m       *boolmat.FactorMatrix
	version uint64
}

// machineCache is one machine's shared cache state for one (matrix,
// version): the full-size table plus memoized lazily-sliced views keyed
// by bit range.
type machineCache struct {
	build sync.Once
	full  *sumcache.Cache

	mu sync.Mutex
	//dbtf:guardedby mu
	slices map[sliceRange]*sumcache.Cache
}

type sliceRange struct{ lo, hi int }

// cacheFor returns the machine's shared cache state for ms at its current
// version, building the full-size table exactly once per machine. Stale
// versions of the same matrix are evicted on the first miss, so the
// registry holds at most one cache per live factor matrix.
func (r *machineRegistry) cacheFor(ms *boolmat.FactorMatrix, groupBits int) *machineCache {
	key := registryKey{m: ms, version: ms.Version()}
	r.mu.Lock()
	mc, ok := r.entries[key]
	if !ok {
		//dbtf:allow-nondeterministic every key matching the stale matrix is deleted; order-independent
		for k, stale := range r.entries {
			if k.m == ms {
				// Every stage that resolved summers over the stale version
				// has been joined (factor versions only change between
				// stages), so its tables can go back to the slab pool.
				stale.release()
				delete(r.entries, k)
			}
		}
		mc = &machineCache{slices: map[sliceRange]*sumcache.Cache{}}
		r.entries[key] = mc
	}
	r.mu.Unlock()
	mc.build.Do(func() { mc.full = sumcache.NewFromFactor(ms, groupBits) })
	return mc
}

// clear drops every entry without recycling the tables. It is the only
// safe drop when live column tasks may still hold summers over the
// entries — machine loss reassigns tasks but keeps the task objects, so
// their caches must survive until the garbage collector proves them dead.
func (r *machineRegistry) clear() {
	r.mu.Lock()
	r.entries = map[registryKey]*machineCache{}
	r.mu.Unlock()
}

// clearRelease drops every entry and returns the cache tables to the slab
// pool. Callers must hold exclusive access with no live tasks: the driver
// between initial factor sets (stages joined, losers' tasks dropped) and
// the worker under a factor push — executor.setFactors on both, which
// empties the task tables in the same step — and executor.release, after
// the run's last stage.
func (r *machineRegistry) clearRelease() {
	r.mu.Lock()
	//dbtf:allow-nondeterministic every entry is released; order is irrelevant
	for _, mc := range r.entries {
		mc.release()
	}
	r.entries = map[registryKey]*machineCache{}
	r.mu.Unlock()
}

// release recycles the cache tables of an evicted entry. The caller must
// guarantee no in-flight task can still read them: entries are only
// evicted at factor-version boundaries, after the stages that used the
// stale version have been joined.
func (mc *machineCache) release() {
	if mc.full != nil {
		mc.full.Release()
	}
}

// slice returns the shared view over entry bit range [lo, hi), memoized
// per distinct range. Lemma 3 bounds the distinct ranges per partition to
// at most two non-full block shapes, so the map stays tiny; the views
// themselves materialize entries lazily on first query.
func (mc *machineCache) slice(lo, hi int) *sumcache.Cache {
	if lo == 0 && hi == mc.full.Width() {
		return mc.full
	}
	key := sliceRange{lo: lo, hi: hi}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	sc, ok := mc.slices[key]
	if !ok {
		sc = mc.full.Slice(lo, hi)
		mc.slices[key] = sc
	}
	return sc
}
