// Package slab recycles the large flat arenas the decomposition engine
// otherwise allocates fresh on every call. Today it holds a partitioning's
// block table, its sparse blocks' CSR arena and its dense blocks'
// packed-row arena (a nonzero lives in one), its cursor tables, a machine's
// decoded set-up bodies and transposed source columns, the sum-cache entry
// tables, a column task's hit accumulators and split arenas, the flip logs,
// the unfoldings' column arrays, the set-up and install blobs a TCP run
// ships, and its connections' frame buffers as they grow. Each has a clear
// owner with a well-defined release point (a partitioning dies with its
// decomposition or its worker's set-up; a sum cache dies when its factor
// version goes stale; a wire blob when its coordinator closes, a frame
// buffer when its connection ends), so it can go back to a free list
// instead of churning the garbage collector. A partitioning that outlives
// every run — a job server's stored set (partition.FromTensorExact) — has
// no such point, and its block table and arenas never come from here: a
// class's capacity would hold up to twice their bytes for good, so they are
// made at their exact length.
//
// Slices are kept per power-of-two capacity class on free lists (List)
// under one mutex, so Get/Put are safe for concurrent use from cluster task
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
// the Put — the memory will be handed to an unrelated Get. Arenas of
// bytes, int32 and uint64 come back with unspecified contents, which
// callers must fully overwrite; every other arena comes back zero.
package slab

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Slices smaller than this many bytes are not worth a round trip through
// the free lists; they come straight from make, n long, and Puts of them
// are dropped.
const minBytes = 2048

// maxRetained bounds the bytes the free lists hold between calls. A Put
// that would pass it is dropped and the slice left to the collector, so a
// process that once factorized a huge tensor does not keep its arenas for
// good.
const maxRetained = 256 << 20

var (
	mu       sync.Mutex
	retained int // bytes on every List, together
	bytes    List[byte]
	int32s   List[int32]
	uint64s  List[uint64]
)

// List is a free list of []T arenas, one stack per power-of-two capacity
// class. Every List shares the package's mutex and its maxRetained budget,
// so a package pools a table of its own type by declaring a List of it.
// The zero List is empty and ready to use.
type List[T any] struct {
	free [33][][]T
}

// class returns the power-of-two capacity class holding n elements.
func class(n int) int { return bits.Len(uint(n - 1)) }

// size returns the bytes of one T.
func (l *List[T]) size() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// Get returns a slice of n Ts. One of fewer than minBytes is a plain make
// of n, which Put drops; a larger one has its class's capacity: the last one
// Put in the class, or else a new one. A recycled arena of bytes, int32 or
// uint64 keeps what its last user wrote, and the caller must overwrite it;
// any other T comes back zero over its whole capacity (Put).
func (l *List[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	if n*l.size() < minBytes {
		return make([]T, n)
	}
	k := class(n)
	if s := l.pop(k); s != nil {
		return s[:n]
	}
	return make([]T, n, 1<<k)
}

// pop removes and returns the slice last Put in class k, or nil.
func (l *List[T]) pop(k int) []T {
	mu.Lock()
	defer mu.Unlock()
	f := l.free[k]
	if len(f) == 0 {
		return nil
	}
	s := f[len(f)-1]
	f[len(f)-1] = nil
	l.free[k] = f[:len(f)-1]
	retained -= l.size() << k
	return s
}

// Put hands s's whole capacity back to the list, if it is a class-sized
// slice worth keeping and the budget has room for it; the slice and every
// alias of it must not be used afterwards. A T other than byte, int32 and
// uint64 may hold pointers, and is zeroed first, so a listed arena keeps
// nothing its elements pointed at reachable — a Block's slices into arenas
// Put before it.
func (l *List[T]) Put(s []T) {
	c := cap(s)
	if c*l.size() < minBytes || c != 1<<class(c) {
		return
	}
	switch any((*T)(nil)).(type) {
	case *byte, *int32, *uint64:
	default:
		clear(s[:c])
	}
	mu.Lock()
	defer mu.Unlock()
	if retained+c*l.size() > maxRetained {
		return
	}
	retained += c * l.size()
	l.free[class(c)] = append(l.free[class(c)], s[:c])
}

// Bytes returns a slice of n bytes with unspecified contents.
func Bytes(n int) []byte { return bytes.Get(n) }

// PutBytes returns a slice obtained from Bytes to the pool. The slice and
// every alias of it must not be used afterwards.
func PutBytes(s []byte) { bytes.Put(s) }

// Int32s returns a slice of n int32s with unspecified contents.
func Int32s(n int) []int32 { return int32s.Get(n) }

// Int32sZeroed returns a slice of n zeroed int32s.
func Int32sZeroed(n int) []int32 {
	s := Int32s(n)
	clear(s)
	return s
}

// PutInt32s returns a slice obtained from Int32s to the pool. The slice
// and every alias of it must not be used afterwards.
func PutInt32s(s []int32) { int32s.Put(s) }

// Uint64s returns a slice of n uint64s with unspecified contents.
func Uint64s(n int) []uint64 { return uint64s.Get(n) }

// Uint64sZeroed returns a slice of n zeroed uint64s.
func Uint64sZeroed(n int) []uint64 {
	s := Uint64s(n)
	clear(s)
	return s
}

// PutUint64s returns a slice obtained from Uint64s to the pool. The slice
// and every alias of it must not be used afterwards.
func PutUint64s(s []uint64) { uint64s.Put(s) }
