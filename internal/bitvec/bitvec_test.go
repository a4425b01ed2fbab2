package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len() = %d, want %d", v.Len(), n)
		}
		if v.OnesCount() != 0 {
			t.Fatalf("new vector of %d bits has %d ones", n, v.OnesCount())
		}
		if v.Any() {
			t.Fatalf("new vector of %d bits reports Any()", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestFromIndicesAndIndices(t *testing.T) {
	idx := []int{0, 5, 64, 99}
	v := FromIndices(100, idx)
	got := v.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices() = %v, want %v", got, idx)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices() = %v, want %v", got, idx)
		}
	}
}

func TestRange(t *testing.T) {
	v := FromIndices(200, []int{1, 63, 64, 150})
	var got []int
	v.Range(func(i int) { got = append(got, i) })
	want := []int{1, 63, 64, 150}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
}

func TestOrAndAndNot(t *testing.T) {
	a := FromIndices(70, []int{0, 10, 65})
	b := FromIndices(70, []int{10, 20, 69})

	or := a.Copy()
	or.Or(b)
	if got := or.Indices(); !equalInts(got, []int{0, 10, 20, 65, 69}) {
		t.Errorf("Or = %v", got)
	}

	and := a.Copy()
	and.And(b)
	if got := and.Indices(); !equalInts(got, []int{10}) {
		t.Errorf("And = %v", got)
	}

	andnot := a.Copy()
	andnot.AndNot(b)
	if got := andnot.Indices(); !equalInts(got, []int{0, 65}) {
		t.Errorf("AndNot = %v", got)
	}
}

func TestCounts(t *testing.T) {
	a := FromIndices(128, []int{0, 1, 64, 100})
	b := FromIndices(128, []int{1, 2, 64})
	if got := a.OnesCount(); got != 4 {
		t.Errorf("OnesCount = %d, want 4", got)
	}
	if got := a.XorCount(b); got != 3 { // {0,100} vs {2}
		t.Errorf("XorCount = %d, want 3", got)
	}
	if got := a.AndCount(b); got != 2 { // {1,64}
		t.Errorf("AndCount = %d, want 2", got)
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(65, []int{3, 64})
	b := FromIndices(65, []int{3, 64})
	c := FromIndices(65, []int{3})
	d := FromIndices(66, []int{3, 64})
	if !a.Equal(b) {
		t.Error("a != b")
	}
	if a.Equal(c) {
		t.Error("a == c")
	}
	if a.Equal(d) {
		t.Error("a == d despite different lengths")
	}
}

func TestZeroAndCopy(t *testing.T) {
	a := FromIndices(100, []int{1, 50, 99})
	b := a.Copy()
	if !b.Equal(a) {
		t.Fatal("Copy mismatch")
	}
	a.Zero()
	if a.Any() {
		t.Fatal("Zero left bits set")
	}
	if !b.Get(50) {
		t.Fatal("Copy shares storage with source")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	ops := map[string]func(a, b *BitVec){
		"Or":       func(a, b *BitVec) { a.Or(b) },
		"And":      func(a, b *BitVec) { a.And(b) },
		"AndNot":   func(a, b *BitVec) { a.AndNot(b) },
		"XorCount": func(a, b *BitVec) { a.XorCount(b) },
		"AndCount": func(a, b *BitVec) { a.AndCount(b) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			op(New(10), New(11))
		}()
	}
}

func TestSlice(t *testing.T) {
	v := New(200)
	for i := 0; i < 200; i += 3 {
		v.Set(i)
	}
	for _, tc := range []struct{ lo, hi int }{
		{0, 200}, {0, 0}, {200, 200}, {1, 64}, {64, 128}, {63, 65}, {7, 133}, {100, 101},
	} {
		s := v.Slice(tc.lo, tc.hi)
		if s.Len() != tc.hi-tc.lo {
			t.Fatalf("Slice(%d,%d).Len() = %d", tc.lo, tc.hi, s.Len())
		}
		for i := 0; i < s.Len(); i++ {
			if s.Get(i) != v.Get(tc.lo+i) {
				t.Fatalf("Slice(%d,%d) bit %d = %v, want %v", tc.lo, tc.hi, i, s.Get(i), v.Get(tc.lo+i))
			}
		}
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, tc := range []struct{ lo, hi int }{{-1, 5}, {0, 11}, {6, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", tc.lo, tc.hi)
				}
			}()
			v.Slice(tc.lo, tc.hi)
		}()
	}
}

func TestStringBitZeroFirst(t *testing.T) {
	want := "0110010000000000000000000000000000000000000000000000000000000000011"
	if got := FromIndices(len(want), []int{1, 2, 5, 65, 66}).String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTrimKeepsTailZero(t *testing.T) {
	// Operations must never leave stray bits beyond Len(), or popcounts
	// would be wrong.
	v := New(70)
	for i := 0; i < 70; i++ {
		v.Set(i)
	}
	s := v.Slice(3, 68) // 65 bits, forces a shifted blit
	if got := s.OnesCount(); got != 65 {
		t.Fatalf("OnesCount = %d, want 65 (tail bits leaked)", got)
	}
}

// randomVec builds a deterministic pseudo-random vector for property tests.
func randomVec(rng *rand.Rand, n int) *BitVec {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func TestQuickOrCommutes(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		a, b := randomVec(rng, n), randomVec(rng, n)
		ab := a.Copy()
		ab.Or(b)
		ba := b.Copy()
		ba.Or(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |a| + |b| = |a∧b| + |a∨b|
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		a, b := randomVec(rng, n), randomVec(rng, n)
		or := a.Copy()
		or.Or(b)
		return a.OnesCount()+b.OnesCount() == a.AndCount(b)+or.OnesCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickXorCountIdentity(t *testing.T) {
	// |a ⊕ b| = |a| + |b| − 2|a∧b|: the identity the partition error
	// evaluation relies on.
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		a, b := randomVec(rng, n), randomVec(rng, n)
		return a.XorCount(b) == a.OnesCount()+b.OnesCount()-2*a.AndCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSliceMatchesBitwise(t *testing.T) {
	f := func(seed int64, nRaw, loRaw, hiRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 1
		lo := int(loRaw) % (n + 1)
		hi := lo + int(hiRaw)%(n-lo+1)
		v := randomVec(rng, n)
		s := v.Slice(lo, hi)
		for i := 0; i < s.Len(); i++ {
			if s.Get(i) != v.Get(lo+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIndicesRoundtrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%400) + 1
		v := randomVec(rng, n)
		return FromIndices(n, v.Indices()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkOr(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomVec(rng, 4096)
	y := randomVec(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkXorCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomVec(rng, 4096)
	y := randomVec(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.XorCount(y)
	}
}
