package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// flush is the smallest request of an established connection — no states,
// no tasks — the frame that took the heartbeat's place as "ping-sized".
var flush = &Msg{Type: MsgRun}

// roundTripMsgs is one message of every shape the protocol sends.
func roundTripMsgs() []*Msg {
	return []*Msg{
		{Type: MsgHello, Proto: ProtoVersion, Machine: 2, Machines: 4},
		{Type: MsgHelloOK, Proto: ProtoVersion},
		{Type: MsgRun, Spec: Spec{Kind: KindEval, Mode: 0, Col: 7, Tasks: 5}, Tasks: []int{0, 3}},
		{Type: MsgRun, States: []StateBlob{{Kind: StateFactors, Payload: []byte{1, 2, 3}}, {Kind: StateColumn}},
			Spec: Spec{Kind: KindEval, Mode: 2, Tasks: 1}, Tasks: []int{0}},
		{Type: MsgResult, Outputs: []TaskOutput{{Task: 3, Nanos: 42, Payload: []byte{9}}, {Task: 0, Nanos: -1}}},
		{Type: MsgResult},
		{Type: MsgError, Error: "boom"},
		flush,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := roundTripMsgs()
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
		Spec: Spec{Kind: KindEval}, Tasks: []int{1}}); err != nil {
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
		"tasks":   states + countLen + 1 + 3*intLen,
		"outputs": states + countLen + 1 + 3*intLen + countLen,
		"error":   states + countLen + 1 + 3*intLen + 2*countLen,
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
	var fw FrameWriter
	n, err := fw.Write(&buf, m, 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("FrameWriter.Write = %v, want ErrFrameTooLarge", err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("refused frame wrote %d bytes (buffer holds %d)", n, buf.Len())
	}
	if n, err := fw.Write(&buf, m, 4096); err != nil || n != buf.Len() {
		t.Fatalf("FrameWriter.Write under the limit = %d, %v (buffer holds %d)", n, err, buf.Len())
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

// naiveFrame is the encoder FrameWriter replaced, kept as its oracle: the
// whole frame appended into one fresh buffer, every payload copied.
func naiveFrame(m *Msg) []byte {
	appendBytes := func(b, p []byte) []byte { return append(appendCount(b, len(p)), p...) }
	size := fixedLen + len(m.Error) + intLen*len(m.Tasks)
	for i := range m.States {
		size += stateBlobMin + len(m.States[i].Payload)
	}
	for i := range m.Outputs {
		size += taskOutputMin + len(m.Outputs[i].Payload)
	}
	b := binary.BigEndian.AppendUint32(nil, uint32(size))
	b = append(b, byte(m.Type))
	b = appendInt(b, int64(m.Proto))
	b = appendInt(b, int64(m.Machine))
	b = appendInt(b, int64(m.Machines))
	b = appendCount(b, len(m.States))
	for i := range m.States {
		b = append(b, byte(m.States[i].Kind))
		b = appendBytes(b, m.States[i].Payload)
	}
	b = append(b, byte(m.Spec.Kind))
	b = appendInt(b, int64(m.Spec.Mode))
	b = appendInt(b, int64(m.Spec.Col))
	b = appendInt(b, int64(m.Spec.Tasks))
	b = appendCount(b, len(m.Tasks))
	for _, t := range m.Tasks {
		b = appendInt(b, int64(t))
	}
	b = appendCount(b, len(m.Outputs))
	for i := range m.Outputs {
		b = appendInt(b, int64(m.Outputs[i].Task))
		b = appendInt(b, m.Outputs[i].Nanos)
		b = appendBytes(b, m.Outputs[i].Payload)
	}
	return appendBytes(b, []byte(m.Error))
}

// codecMsgs is roundTripMsgs plus payloads on both sides of the splice
// threshold, in every position a payload can take: alone, between copied
// ones, adjacent to another spliced one, first and last.
func codecMsgs() []*Msg {
	payload := func(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }
	under, at, over := payload(spliceMin-1, 1), payload(spliceMin, 2), payload(spliceMin+1, 3)
	return append(roundTripMsgs(),
		&Msg{Type: MsgRun, States: []StateBlob{{Kind: StateSetup, Payload: at}}},
		&Msg{Type: MsgRun, States: []StateBlob{{Kind: StateSetup, Payload: under}, {Kind: StateFactors, Payload: over}, {Kind: StateColumn, Payload: []byte{7}}},
			Spec: Spec{Kind: KindEval, Mode: 1, Col: 2, Tasks: 3}, Tasks: []int{1, 2}},
		&Msg{Type: MsgRun, States: []StateBlob{{Kind: StateColumn, Payload: []byte{7}}, {Kind: StateSetup, Payload: over}, {Kind: StateFactors, Payload: at}}},
		&Msg{Type: MsgResult, Outputs: []TaskOutput{{Task: 1, Nanos: 5, Payload: over}, {Task: 2, Nanos: 6, Payload: under}, {Task: 3, Nanos: 7, Payload: at}}, Error: "tail"},
	)
}

// TestFrameWriterMatchesNaiveEncoder: one FrameWriter, reused for every
// message, puts on the wire exactly the bytes the copying encoder built —
// whether its spliced payloads leave as sequential writes (a bytes.Buffer)
// or as one writev (a *net.TCPConn).
func TestFrameWriterMatchesNaiveEncoder(t *testing.T) {
	msgs := codecMsgs()
	var want []byte
	for _, m := range msgs {
		want = append(want, naiveFrame(m)...)
	}

	var fw FrameWriter
	var buf bytes.Buffer
	for i, m := range msgs {
		before := buf.Len()
		n, err := fw.Write(&buf, m, 0)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if frame := naiveFrame(m); n != len(frame) || !bytes.Equal(buf.Bytes()[before:], frame) {
			t.Fatalf("message %d: FrameWriter wrote %d bytes differing from the naive encoder's %d", i, n, len(frame))
		}
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type received struct {
		data []byte
		err  error
	}
	got := make(chan received, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			got <- received{err: err}
			return
		}
		defer conn.Close()
		data, err := io.ReadAll(conn)
		got <- received{data, err}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := conn.(*net.TCPConn); !ok {
		t.Fatalf("loopback dial returned a %T, want the *net.TCPConn writev serves", conn)
	}
	for i, m := range msgs {
		if _, err := fw.Write(conn, m, 0); err != nil {
			t.Fatalf("message %d over tcp: %v", i, err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, want) {
		t.Fatalf("the socket carried %d bytes differing from the naive encoder's %d", len(r.data), len(want))
	}
}

// TestFrameReaderKeepsNoStaleState: one FrameReader decoding a stream of
// long and short frames returns, frame for frame, exactly what a one-shot
// ReadFrame returns — no state, task, output, name or error left over from
// the frame before — and a frame that fails to decode does not poison the
// next.
func TestFrameReaderKeepsNoStaleState(t *testing.T) {
	msgs := codecMsgs()
	// Long before short, and every neighbour pair both ways round.
	for i := len(msgs) - 1; i >= 0; i-- {
		msgs = append(msgs, msgs[i])
	}
	var stream bytes.Buffer
	for _, m := range msgs {
		stream.Write(naiveFrame(m))
	}
	var fr FrameReader
	for i, m := range msgs {
		if i == len(msgs)/2 {
			if _, _, err := fr.Read(bytes.NewReader([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}), 0); err == nil {
				t.Fatal("garbage body decoded successfully")
			}
		}
		want, wantN, err := ReadFrame(bytes.NewReader(naiveFrame(m)), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := fr.Read(&stream, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: the kept reader returned %+v (%d bytes), a one-shot read %+v (%d bytes)", i, got, n, want, wantN)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left unread", stream.Len())
	}
}

// TestFrameCodecSteadyStateAllocations: a kept writer and a kept reader
// move a stage-sized request and reply without allocating at all, a
// spliced set-up frame included on the write side.
func TestFrameCodecSteadyStateAllocations(t *testing.T) {
	req := &Msg{Type: MsgRun, States: []StateBlob{{Kind: StateColumn, Payload: make([]byte, 200)}},
		Spec: Spec{Kind: KindEval, Col: 4, Tasks: 4}, Tasks: []int{0, 2}}
	resp := &Msg{Type: MsgResult, Outputs: []TaskOutput{{Task: 0, Nanos: 9, Payload: make([]byte, 4096)}, {Task: 2, Nanos: 9, Payload: make([]byte, 4096)}}}
	setup := &Msg{Type: MsgRun, States: []StateBlob{{Kind: StateSetup, Payload: make([]byte, 8*spliceMin)}}}
	// A reader per direction, as on a connection: the worker's sees the
	// requests, the coordinator's the replies.
	var fw FrameWriter
	var readers [2]FrameReader
	var buf bytes.Buffer
	r := bytes.NewReader(nil)
	cycle := func() {
		for i, m := range []*Msg{req, resp} {
			buf.Reset()
			if _, err := fw.Write(&buf, m, 0); err != nil {
				t.Fatal(err)
			}
			r.Reset(buf.Bytes())
			if _, _, err := readers[i].Read(r, 0); err != nil {
				t.Fatal(err)
			}
		}
		buf.Reset()
		if _, err := fw.Write(&buf, setup, 0); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warm request, reply and set-up frame cost %v allocations, want 0", allocs)
	}
}
