// Package slab recycles the large flat arenas the decomposition engine
// otherwise allocates fresh on every call: unfolding column arrays,
// partition CSR and packed-row arenas, and sum-cache entry tables. These
// are the dominant allocation sites of a Factorize call, and because each
// has a clear owner with a well-defined release point (an unfolding is
// dead once its partitioning is built; a partitioning dies with its
// decomposition; a sum cache dies when its factor version goes stale),
// they can be returned to a free list instead of churning the garbage
// collector.
//
// Slices are kept per power-of-two capacity class on free lists under one
// mutex, so Get/Put are safe for concurrent use from cluster task
// goroutines and TCP workers. A Get never fails: on an empty list it falls
// back to make. The lists are plain stacks, not sync.Pools: a sync.Pool
// forgets what it holds after two collections and cannot hand a slice put
// on one P to a Get on another while it sits in the private slot, so
// whether a call found its arenas depended on when the collector last ran
// and on which thread the caller landed. Here a Put slice is found by the
// next Get of its class, always; what the lists may hold is bounded by
// maxRetained instead of by the collector.
//
// Contract: a Put hands ownership of the slice's full capacity back to the
// pool. The caller must not retain any alias (including subslices) past
// the Put — the memory will be handed to an unrelated Get. Dirty variants
// return unspecified contents; callers must fully overwrite them.
package slab

import (
	"math/bits"
	"sync"
)

// Slices smaller than this many bytes are not worth a round trip through
// the free lists; they come straight from make and Puts of them are
// dropped.
const minBytes = 2048

// maxRetained bounds the bytes the free lists hold between calls. A Put
// that would pass it is dropped and the slice left to the collector, so a
// process that once factorized a huge tensor does not keep its arenas for
// good. The gated workloads hold 10–45 MB.
const maxRetained = 256 << 20

var (
	mu       sync.Mutex
	retained int // bytes on the free lists
	int32s   [33][][]int32
	uint64s  [33][][]uint64
)

// class returns the power-of-two capacity class holding n elements.
func class(n int) int { return bits.Len(uint(n - 1)) }

// get pops a slice of class k, of elemBytes-sized elements, or returns nil.
func get[T any](lists *[33][][]T, k, elemBytes int) []T {
	mu.Lock()
	defer mu.Unlock()
	l := lists[k]
	if len(l) == 0 {
		return nil
	}
	s := l[len(l)-1]
	l[len(l)-1] = nil
	lists[k] = l[:len(l)-1]
	retained -= elemBytes << k
	return s
}

// put pushes s if it is a whole class-sized slice worth keeping and the
// budget has room for it.
func put[T any](lists *[33][][]T, s []T, elemBytes int) {
	c := cap(s)
	if c*elemBytes < minBytes || c != 1<<class(c) {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if retained+c*elemBytes > maxRetained {
		return
	}
	retained += c * elemBytes
	lists[class(c)] = append(lists[class(c)], s[:c])
}

// Int32s returns a slice of n int32s with unspecified contents.
func Int32s(n int) []int32 {
	if n == 0 {
		return nil
	}
	k := class(n)
	if n*4 >= minBytes {
		if s := get(&int32s, k, 4); s != nil {
			return s[:n]
		}
	}
	return make([]int32, n, 1<<k)
}

// Int32sZeroed returns a slice of n zeroed int32s.
func Int32sZeroed(n int) []int32 {
	s := Int32s(n)
	clear(s)
	return s
}

// PutInt32s returns a slice obtained from Int32s to the pool. The slice
// and every alias of it must not be used afterwards.
func PutInt32s(s []int32) { put(&int32s, s, 4) }

// Uint64s returns a slice of n uint64s with unspecified contents.
func Uint64s(n int) []uint64 {
	if n == 0 {
		return nil
	}
	k := class(n)
	if n*8 >= minBytes {
		if s := get(&uint64s, k, 8); s != nil {
			return s[:n]
		}
	}
	return make([]uint64, n, 1<<k)
}

// Uint64sZeroed returns a slice of n zeroed uint64s.
func Uint64sZeroed(n int) []uint64 {
	s := Uint64s(n)
	clear(s)
	return s
}

// PutUint64s returns a slice obtained from Uint64s to the pool. The slice
// and every alias of it must not be used afterwards.
func PutUint64s(s []uint64) { put(&uint64s, s, 8) }
