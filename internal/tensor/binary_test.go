package tensor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBinaryRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomTensor(rng, 9, 11, 13, 0.15)
	var buf bytes.Buffer
	if err := x.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(x) {
		t.Fatal("binary roundtrip mismatch")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomTensor(rng, 64, 64, 64, 0.02)
	var text, bin bytes.Buffer
	if _, err := x.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if err := x.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Fatalf("binary %d bytes not smaller than text %d", bin.Len(), text.Len())
	}
}

func TestBinaryEmptyTensor(t *testing.T) {
	x := New(5, 6, 7)
	var buf bytes.Buffer
	if err := x.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(x) {
		t.Fatal("empty tensor roundtrip mismatch")
	}
}

func TestBinaryErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("XXXX"),
		"truncated":  append([]byte("DBT1"), 0x05),
		"bad coords": append([]byte("DBT1"), 2, 2, 2, 1, 9, 0, 0), // I=9 outside 2x2x2
	}
	for name, in := range cases {
		if _, _, err := DecodeBinary(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinaryFileRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomTensor(rng, 6, 6, 6, 0.2)
	path := filepath.Join(t.TempDir(), "x.btns")
	if err := x.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(x) {
		t.Fatal("file roundtrip mismatch")
	}
}

func TestReadAnyFile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomTensor(rng, 7, 7, 7, 0.15)
	dir := t.TempDir()

	textPath := filepath.Join(dir, "x.tns")
	if err := x.WriteFile(textPath); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "x.btns")
	if err := x.WriteBinaryFile(binPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{textPath, binPath} {
		back, err := ReadAnyFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !back.Equal(x) {
			t.Fatalf("%s: roundtrip mismatch", path)
		}
	}
	if _, err := ReadAnyFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestQuickBinaryRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomTensor(rng, rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(12)+1, rng.Float64()*0.4)
		var buf, stream bytes.Buffer
		if err := x.WriteBinary(&buf); err != nil {
			return false
		}
		if err := streamBinary(x, &stream); err != nil || !bytes.Equal(buf.Bytes(), stream.Bytes()) || buf.Len() != x.BinarySize() {
			return false
		}
		back, _, err := DecodeBinary(buf.Bytes())
		return err == nil && back.Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// streamBinary is the encoder AppendBinary replaced, kept as its oracle:
// one uvarint at a time through a bufio.Writer.
func streamBinary(t *Tensor, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(binaryMagic[:])
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { bw.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	for _, v := range []uint64{uint64(t.dimI), uint64(t.dimJ), uint64(t.dimK), uint64(len(t.coords))} {
		put(v)
	}
	prev := Coord{I: -1, J: -1, K: -1}
	for _, c := range t.coords {
		di := c.I - prev.I
		if prev.I < 0 {
			di = c.I
		}
		put(uint64(di))
		put(uint64(c.J))
		put(uint64(c.K))
		prev = c
	}
	return bw.Flush()
}

// goldenTensor and goldenBinary pin the file format: the bytes are what the
// streaming encoder wrote for this tensor before AppendBinary existed.
// Multi-byte uvarints in every position, a ΔI of zero and one over 127.
var goldenTensor = MustFromCoords(300, 5, 200, []Coord{{0, 0, 0}, {0, 4, 199}, {2, 1, 130}, {2, 1, 131}, {130, 3, 7}, {299, 4, 128}})

const goldenBinary = "44425431ac0205c801060000000004c701020182010001830180010307a901048001"

func TestBinaryGolden(t *testing.T) {
	got := goldenTensor.AppendBinary([]byte("prefix"))
	if want := "prefix" + mustUnhex(t, goldenBinary); string(got) != want {
		t.Fatalf("AppendBinary = %x, want the prefix and %s", got, goldenBinary)
	}
	if n := goldenTensor.BinarySize(); n != len(goldenBinary)/2 {
		t.Fatalf("BinarySize = %d, the encoding is %d bytes", n, len(goldenBinary)/2)
	}
	back, rest, err := DecodeBinary([]byte(mustUnhex(t, goldenBinary) + "rest"))
	if err != nil || !back.Equal(goldenTensor) || string(rest) != "rest" {
		t.Fatalf("DecodeBinary = %v, rest %q, %v", back, rest, err)
	}
}

func mustUnhex(t *testing.T, s string) string {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// blob hand-builds a binary tensor from entries in the order given, which
// AppendBinary never would: ΔI is taken against the entry before, so the
// list must not descend in I.
func blob(dimI, dimJ, dimK int, entries []Coord) []byte {
	b := append([]byte(nil), binaryMagic[:]...)
	for _, v := range []int{dimI, dimJ, dimK, len(entries)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	prevI := 0
	for _, c := range entries {
		b = binary.AppendUvarint(b, uint64(c.I-prevI))
		b = binary.AppendUvarint(b, uint64(c.J))
		b = binary.AppendUvarint(b, uint64(c.K))
		prevI = c.I
	}
	return b
}

// TestDecodeBinarySortsOnlyWhenItMust: a blob with two entries swapped and
// one repeated still decodes to the sorted, deduplicated tensor; a blob in
// order is taken as it is — the tensor and its coordinate list are all the
// decoder allocates, where a sort.Slice call alone would add two objects.
func TestDecodeBinarySortsOnlyWhenItMust(t *testing.T) {
	want := MustFromCoords(4, 5, 6, []Coord{{0, 1, 2}, {1, 0, 0}, {1, 3, 5}, {1, 4, 1}, {3, 0, 0}})
	messy := blob(4, 5, 6, []Coord{{0, 1, 2}, {1, 3, 5}, {1, 0, 0}, {1, 4, 1}, {1, 4, 1}, {3, 0, 0}})
	got, rest, err := DecodeBinary(messy)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeBinary = %v, %d bytes left", err, len(rest))
	}
	if !got.Equal(want) {
		t.Fatalf("decoded %v, want %v", got.Coords(), want.Coords())
	}

	const n = 100_000
	coords := make([]Coord, n)
	for i := range coords {
		coords[i] = Coord{I: i / 1000, J: i / 10 % 100, K: i % 10}
	}
	ordered := MustFromCoords(100, 100, 10, coords).AppendBinary(nil)
	var back *Tensor
	allocs := testing.AllocsPerRun(5, func() {
		if back, _, err = DecodeBinary(ordered); err != nil {
			t.Fatal(err)
		}
	})
	if back.NNZ() != n {
		t.Fatalf("decoded %d of %d entries", back.NNZ(), n)
	}
	if allocs > 2 {
		t.Errorf("decoding %d in-order entries allocates %v objects, want the tensor and its coordinates", n, allocs)
	}
	// The same entries with the first two exchanged do pay for the sort.
	coords[0], coords[1] = coords[1], coords[0]
	shuffled := blob(100, 100, 10, coords)
	if sorting := testing.AllocsPerRun(5, func() {
		if back, _, err = DecodeBinary(shuffled); err != nil {
			t.Fatal(err)
		}
	}); sorting <= allocs {
		t.Errorf("an out-of-order blob decodes in %v allocations, no more than the in-order %v: nothing sorted it", sorting, allocs)
	}
	if !back.Equal(MustFromCoords(100, 100, 10, coords)) {
		t.Fatal("the out-of-order blob decoded to another tensor")
	}
}

// TestDecodeBinaryForgedCount: a nonzero count the input cannot back is
// refused before it sizes the coordinate list.
func TestDecodeBinaryForgedCount(t *testing.T) {
	forged := append([]byte(nil), binaryMagic[:]...)
	forged = append(forged, 2, 2, 2)
	forged = binary.AppendUvarint(forged, 1<<40)
	forged = append(forged, 0, 0, 0, 1, 1, 1)
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = DecodeBinary(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count of 2^40 over six bytes of entries decoded")
	}
	// The error itself costs a few KB the first time fmt runs.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing a %d-byte blob allocated %d bytes", len(forged), grew)
	}
}

// referenceDecode is DecodeBinary as it was before its entry loop decoded
// the short uvarints itself: every field through binary.Uvarint, every
// check as DecodeBinary makes it.
func referenceDecode(data []byte) (*Tensor, []byte, error) {
	if len(data) < len(binaryMagic) || !bytes.Equal(data[:len(binaryMagic)], binaryMagic[:]) {
		return DecodeBinary(data) // the magic is checked before any uvarint
	}
	rest := data[len(binaryMagic):]
	var dims [4]uint64
	for n := range dims {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("tensor: binary header: %w", uvarintErr(k))
		}
		dims[n], rest = v, rest[k:]
	}
	const maxDim = 1 << 40
	if dims[0] > maxDim || dims[1] > maxDim || dims[2] > maxDim {
		return nil, nil, fmt.Errorf("tensor: implausible dimensions %dx%dx%d", dims[0], dims[1], dims[2])
	}
	t := New(int(dims[0]), int(dims[1]), int(dims[2]))
	if dims[3] > uint64(len(rest))/3 {
		return nil, nil, fmt.Errorf("tensor: %d entries claimed, %d bytes follow: %w", dims[3], len(rest), io.ErrUnexpectedEOF)
	}
	coords := make([]Coord, int(dims[3]))
	cur := 0
	for n := range coords {
		var f [3]uint64
		for m := range f {
			v, k := binary.Uvarint(rest)
			if k <= 0 {
				return nil, nil, fmt.Errorf("tensor: entry %d: %w", n, uvarintErr(k))
			}
			f[m], rest = v, rest[k:]
		}
		if f[0] > maxDim || f[1] > maxDim || f[2] > maxDim {
			return nil, nil, fmt.Errorf("tensor: entry %d coordinate out of range", n)
		}
		cur += int(f[0])
		c := Coord{I: cur, J: int(f[1]), K: int(f[2])}
		if !t.inRange(c) {
			return nil, nil, fmt.Errorf("tensor: entry %d coordinate (%d,%d,%d) outside %dx%dx%d",
				n, c.I, c.J, c.K, t.dimI, t.dimJ, t.dimK)
		}
		coords[n] = c
	}
	sortCoords(coords)
	t.coords = dedup(coords)
	return t, rest, nil
}

// FuzzDecodeBinary: on any input DecodeBinary gives the tensor and the
// rest the reference decoder gives, or fails with its error.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(goldenTensor.AppendBinary(nil))
	f.Add([]byte(goldenTensor.AppendBinary(nil))[:20])
	f.Add(blob(4, 5, 6, []Coord{{0, 1, 2}, {1, 3, 5}, {1, 0, 0}, {1, 4, 1}, {1, 4, 1}, {3, 0, 0}}))
	f.Add(append(blob(1<<20, 200, 1<<15, []Coord{{1 << 19, 199, 1 << 14}}), 0x80))
	f.Add(append(append([]byte(nil), binaryMagic[:]...), 3, 3, 3, 1, 0x80, 0x00, 0x81, 0x80, 0x00, 2))
	f.Add(append(append([]byte(nil), binaryMagic[:]...), 3, 3, 3, 1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte("DBT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := DecodeBinary(data)
		want, wantRest, wantErr := referenceDecode(data)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeBinary: %v, the reference: %v", err, wantErr)
		}
		if err == nil && (!got.Equal(want) || !bytes.Equal(rest, wantRest)) {
			t.Fatalf("DecodeBinary gave %v with %d bytes left, the reference %v with %d", got.Coords(), len(rest), want.Coords(), len(wantRest))
		}
	})
}
