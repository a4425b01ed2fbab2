package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// flush is the smallest request of an established connection — no states,
// no tasks — the frame that took the heartbeat's place as "ping-sized".
var flush = &Msg{Type: MsgRun}

func TestFrameRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgHello, Proto: ProtoVersion, Machine: 2, Machines: 4},
		{Type: MsgHelloOK, Proto: ProtoVersion},
		{Type: MsgRun, Spec: Spec{Name: "eval:A", Kind: KindEval, Mode: 0, Col: 7, Tasks: 5}, Tasks: []int{0, 3}},
		{Type: MsgRun, States: []StateBlob{{Kind: StateFactors, Payload: []byte{1, 2, 3}}, {Kind: StateColumn}},
			Spec: Spec{Name: "eval:C", Kind: KindEval, Mode: 2, Tasks: 1}, Tasks: []int{0}},
		{Type: MsgResult, Outputs: []TaskOutput{{Task: 3, Nanos: 42, Payload: []byte{9}}, {Task: 0, Nanos: -1}}},
		{Type: MsgResult},
		{Type: MsgError, Error: "boom"},
		flush,
	}
	var buf bytes.Buffer
	var written int
	for _, m := range msgs {
		n, err := WriteFrame(&buf, m)
		if err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		written += n
	}
	if written != buf.Len() {
		t.Fatalf("WriteFrame reported %d bytes, buffer holds %d", written, buf.Len())
	}
	var read int
	for i, want := range msgs {
		got, n, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		read += n
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if read != written {
		t.Fatalf("ReadFrame consumed %d bytes of %d written", read, written)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, &Msg{Type: MsgRun, States: []StateBlob{{Kind: StateColumn, Payload: []byte{5}}},
		Spec: Spec{Name: "eval:B", Kind: KindEval}, Tasks: []int{1}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]), 0)
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", cut, len(whole))
		}
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	// A prefix claiming far more than the limit must be rejected before any
	// body allocation.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31-1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized prefix: got %v, want limit error", err)
	}

	// A prefix within the limit but backed by a short stream must error
	// after reading what exists, not allocate the full claimed size.
	frame := append(hdr[:0:0], 0, 1, 0, 0) // claims 64 KiB
	frame = append(frame, make([]byte, 10)...)
	_, _, err = ReadFrame(bytes.NewReader(frame), 1<<20)
	if err == nil || !strings.Contains(err.Error(), "truncated frame body") {
		t.Fatalf("short body: got %v, want truncation error", err)
	}
}

func TestReadFrameGarbageAndTrailing(t *testing.T) {
	garbage := []byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}
	if _, _, err := ReadFrame(bytes.NewReader(garbage), 0); err == nil {
		t.Fatal("garbage body decoded successfully")
	}

	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, flush); err != nil {
		t.Fatal(err)
	}
	// Inflate the declared length so the message's fields end before the
	// frame does: the decoder must reject the trailing bytes.
	b := append([]byte(nil), buf.Bytes()...)
	b = append(b, 0, 0, 0)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	_, _, err := ReadFrame(bytes.NewReader(b), 0)
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("padded frame: got %v, want trailing-bytes error", err)
	}

	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 0); err == nil {
		t.Fatal("empty frame decoded successfully")
	}
}

func TestReadFrameEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil), 0)
	if err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestReadFrameForgedCounts: an element count the body cannot back is
// corrupt, and is refused before it sizes an allocation — a frame of a few
// bytes must not cost megabytes.
func TestReadFrameForgedCounts(t *testing.T) {
	var empty bytes.Buffer
	if _, err := WriteFrame(&empty, flush); err != nil {
		t.Fatal(err)
	}
	// Where each count sits in a frame with nothing in it.
	const states = 4 + 1 + 3*intLen
	offsets := map[string]int{
		"states":  states,
		"name":    states + countLen + 1 + 3*intLen,
		"tasks":   states + countLen + 1 + 3*intLen + countLen,
		"outputs": states + countLen + 1 + 3*intLen + 2*countLen,
		"error":   states + countLen + 1 + 3*intLen + 3*countLen,
	}
	cases := map[string][]byte{}
	for name, off := range offsets {
		data := append([]byte(nil), empty.Bytes()...)
		binary.BigEndian.PutUint32(data[off:], 1<<20)
		cases[name] = data
	}
	for name, data := range cases {
		var err error
		grew := allocatedBytes(1024, func() { _, _, err = ReadFrame(bytes.NewReader(data), 0) })
		if err == nil {
			t.Errorf("%s: forged count decoded successfully", name)
		}
		if grew > 1024 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", name, len(data), grew)
		}
	}
}

// allocatedBytes returns the heap bytes f allocates. TotalAlloc is
// process-wide (and under -fuzz the engine allocates beside the target),
// so a reading over bound is taken again, up to three times, and the least
// is the one believed.
func allocatedBytes(bound uint64, f func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3 && least > bound; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWriteFrameTooLarge: a message over the limit is refused with the
// typed error before a byte reaches the writer.
func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	m := &Msg{Type: MsgRun, States: []StateBlob{{Kind: StateSetup, Payload: make([]byte, 2048)}}}
	n, err := WriteFrameMax(&buf, m, 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrameMax = %v, want ErrFrameTooLarge", err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("refused frame wrote %d bytes (buffer holds %d)", n, buf.Len())
	}
	if n, err := WriteFrameMax(&buf, m, 4096); err != nil || n != buf.Len() {
		t.Fatalf("WriteFrameMax under the limit = %d, %v (buffer holds %d)", n, err, buf.Len())
	}
}

// TestFrameAllocations pins the envelope's fixed cost: a frame is one
// buffer to write, and header, body and message to read.
func TestFrameAllocations(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, flush); err != nil {
		t.Fatal(err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	if w := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if _, err := WriteFrame(&buf, flush); err != nil {
			t.Fatal(err)
		}
	}); w > 2 {
		t.Errorf("writing a %d-byte frame costs %v allocations, want <= 2", len(encoded), w)
	}
	r := bytes.NewReader(encoded)
	if rd := testing.AllocsPerRun(100, func() {
		r.Reset(encoded)
		if _, _, err := ReadFrame(r, 0); err != nil {
			t.Fatal(err)
		}
	}); rd > 4 {
		t.Errorf("reading a %d-byte frame costs %v allocations, want <= 4", len(encoded), rd)
	}
}
