package slab

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestClass(t *testing.T) {
	cases := []struct{ n, k int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := class(c.n); got != c.k {
			t.Errorf("class(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}

func TestInt32sShape(t *testing.T) {
	for _, n := range []int{0, 1, 7, 511, 512, 513, 4096, 100_000} {
		s := Int32s(n)
		if len(s) != n {
			t.Fatalf("Int32s(%d) has len %d", n, len(s))
		}
		want := 1 << class(n)
		if n*4 < minBytes {
			want = n // below the floor a Get is a plain make
		}
		if n > 0 && cap(s) != want {
			t.Fatalf("Int32s(%d) has cap %d, want %d", n, cap(s), want)
		}
		PutInt32s(s)
	}
}

func TestZeroedVariantsAreZero(t *testing.T) {
	// Dirty a pooled slice, return it, and check the zeroed constructor
	// really clears recycled contents.
	for i := 0; i < 3; i++ {
		d := Int32s(4096)
		for j := range d {
			d[j] = -1
		}
		PutInt32s(d)
		z := Int32sZeroed(4096)
		for j, v := range z {
			if v != 0 {
				t.Fatalf("Int32sZeroed[%d] = %d after recycling", j, v)
			}
		}
		PutInt32s(z)

		u := Uint64s(4096)
		for j := range u {
			u[j] = ^uint64(0)
		}
		PutUint64s(u)
		uz := Uint64sZeroed(4096)
		for j, v := range uz {
			if v != 0 {
				t.Fatalf("Uint64sZeroed[%d] = %d after recycling", j, v)
			}
		}
		PutUint64s(uz)
	}
}

func TestPutRejectsForeignSlices(t *testing.T) {
	// Non-power-of-two capacities (e.g. subslices with odd caps) and
	// below-threshold slices must be dropped, not pooled: a later Get
	// assumes full class capacity.
	PutInt32s(make([]int32, 1000, 1000)) // cap not a power of two
	PutInt32s(make([]int32, 8))          // below minBytes
	PutUint64s(make([]uint64, 100, 100))
	PutUint64s(nil)
	s := Int32s(1024)
	if cap(s) != 1024 {
		t.Fatalf("Int32s(1024) has cap %d after foreign Puts, want 1024", cap(s))
	}
	PutInt32s(s)
}

// TestPutSurvivesCollections pins what the free lists are for: the next
// Get of a class finds the last Put, whatever the collector did in
// between and whichever goroutine asks. A sync.Pool fails it — two
// collections empty it — and the benchmark's alloc_mb_per_op read
// bimodally for that reason.
func TestPutSurvivesCollections(t *testing.T) {
	a, u, b := Int32s(1<<12), Uint64s(1<<12), Bytes(1<<12)
	pa, pu, pb := &a[0], &u[0], &b[0]
	PutInt32s(a)
	PutUint64s(u)
	PutBytes(b)
	runtime.GC()
	runtime.GC()
	done := make(chan bool)
	go func() {
		a, u, b := Int32s(1<<12-5), Uint64s(1<<12-5), Bytes(1<<12-5)
		same := &a[0] == pa && &u[0] == pu && &b[0] == pb
		PutInt32s(a)
		PutUint64s(u)
		PutBytes(b)
		done <- same
	}()
	if !<-done {
		t.Fatal("a Get after two collections did not return the slice last Put")
	}
}

// TestConcurrentChurn hammers Get/Put from many goroutines; run under
// -race this pins the pools' safety for cluster task goroutines and TCP
// workers recycling concurrently.
func TestConcurrentChurn(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				n := 1 + rng.Intn(8192)
				a := Int32s(n)
				b := Uint64sZeroed(n)
				for j := range b {
					if b[j] != 0 {
						t.Error("dirty zeroed slice")
						return
					}
				}
				a[0], a[n-1] = 1, 2
				PutInt32s(a)
				PutUint64s(b)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestPutZeroesTablesThatHoldSlices: a table whose elements hold slices is
// zeroed over its whole capacity when it is Put, so the free list keeps
// nothing they pointed at reachable, and the next Get of its class finds
// only zero elements.
func TestPutZeroesTablesThatHoldSlices(t *testing.T) {
	type row struct {
		cells []int32
		n     int
	}
	var l List[row]
	s := l.Get(100) // 32 B a row: class 128, 4 KiB
	arena := make([]int32, 8)
	full := s[:cap(s)]
	for i := range full {
		full[i] = row{cells: arena, n: i + 1}
	}
	first := &s[0]
	l.Put(s)
	got := l.Get(70)
	if &got[0] != first {
		t.Fatal("the Get after a Put of its class did not return the slice Put")
	}
	for i, r := range got[:cap(got)] {
		if r.cells != nil || r.n != 0 {
			t.Fatalf("element %d of a recycled table is %+v, want zero", i, r)
		}
	}
}

// TestGetBelowTheFloorIsNotKept: a Get below the pool's floor is a plain
// make of its length, which a Put drops. When it was made at its class's
// capacity, a Put of it was kept, and only a Get of the whole class ever
// took it, so the lists grew with slices no Get wanted.
func TestGetBelowTheFloorIsNotKept(t *testing.T) {
	a := Int32s(300) // 1,200 B: below the floor; its class holds 2 KiB
	if cap(a) != 300 {
		t.Errorf("Int32s(300) has cap %d, want 300", cap(a))
	}
	PutInt32s(a)
	b := Int32s(512)
	if &b[0] == &a[0] {
		t.Error("a Get of the class took a slice made below the floor")
	}
	PutInt32s(b)
}
