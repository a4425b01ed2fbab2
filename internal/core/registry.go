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
// registry realizes that accounting: the table over a row range of a
// caching matrix — the full range for a block that spans a PVM product, a
// narrower one for a block the partition boundary cut — is built by
// whichever of the machine's tasks gets there first and reused by the rest,
// and it survives across stages for as long as the matrix is unchanged.
// That cross-stage validity is what lets the B-update and C-update share
// one cache over A, iteration 2's A-update reuse the cache iteration 1's
// totalError built over B, and any update reuse the tables of one before it
// over a matrix no commit has changed since — on a worker as on the driver,
// since a worker's matrices are installed once and then toggled in place.
//
// Tasks placed on one machine may run concurrently in real time (the
// goroutine pool is decoupled from the machine count), so the registry is
// internally synchronized; cache contents are immutable once built.
type machineRegistry struct {
	mu sync.Mutex
	//dbtf:guardedby mu
	entries map[registryKey]*machineCache
	// builds counts the tables the machine has made, one per entry.
	//dbtf:guardedby mu
	builds int
}

// registryKey identifies a table: the caching matrix, its mutation version
// and the row range [lo, hi) the table covers. A version mismatch means the
// matrix changed since the table was built and the entry is stale. Lemma 3
// bounds the ranges narrower than the matrix to two per partition.
type registryKey struct {
	m       *boolmat.FactorMatrix
	version uint64
	lo, hi  int
}

// machineCache is one registry slot: the table, built once by the first
// task that asks for it.
type machineCache struct {
	build sync.Once
	table *sumcache.Cache
}

// cacheFor returns the machine's shared table over rows [lo, hi) of ms at
// its current version, building it exactly once per machine. Stale versions
// of the same matrix are evicted on the first miss, so the registry holds
// tables of at most one version per live factor matrix.
func (r *machineRegistry) cacheFor(ms *boolmat.FactorMatrix, lo, hi, groupBits int) *sumcache.Cache {
	key := registryKey{m: ms, version: ms.Version(), lo: lo, hi: hi}
	r.mu.Lock()
	mc, ok := r.entries[key]
	if !ok {
		for k, stale := range r.entries {
			if k.m == ms && k.version != key.version {
				// Every stage that resolved a table over the stale version
				// has been joined (factor versions only change between
				// stages), so its tables can go back to the slab pool.
				stale.release()
				delete(r.entries, k)
			}
		}
		mc = &machineCache{}
		r.entries[key] = mc
		r.builds++
	}
	r.mu.Unlock()
	mc.build.Do(func() { mc.table = sumcache.NewFromFactorRows(ms, lo, hi, groupBits) })
	return mc.table
}

// clearRelease drops every entry and returns the cache tables to the slab
// pool. Callers must hold exclusive access with no live tasks: the driver
// between initial factor sets (stages joined, losers' tasks dropped) and
// the worker under a factor push — executor.setFactors on both — the driver
// at a machine loss (executor.machineLost), each of which makes every column
// task stale in the same step, and executor.release, after the run's last
// stage.
func (r *machineRegistry) clearRelease() {
	r.mu.Lock()
	for _, mc := range r.entries {
		mc.release()
	}
	clear(r.entries)
	r.mu.Unlock()
}

// release recycles the table of an evicted entry, if its build got as far
// as producing one. The caller must guarantee no in-flight task can still
// read it: entries are only evicted at factor-version boundaries, after the
// stages that used the stale version have been joined.
func (mc *machineCache) release() {
	if mc.table != nil {
		mc.table.Release()
	}
}
