package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"dbtf/internal/slab"
)

// ProtoVersion is the wire protocol version carried in the handshake;
// mismatched peers refuse each other instead of mis-decoding. It guards
// every byte layout a peer decodes: the frame envelope, the set-up header
// and bodies, the state blobs and the eval and commit bodies. Bump it in
// the change that alters any of them, so that a driver and a worker built
// on either side of the change fail the handshake instead of reading each
// other's bytes shifted.
const ProtoVersion = 16

// DefaultMaxFrame bounds a frame body when the caller does not choose a
// tighter limit: large enough for a set-up blob, small enough that a
// corrupt length prefix cannot ask for absurd memory.
const DefaultMaxFrame = 1 << 30

// readChunk is the first allocation for a body larger than it; the buffer
// then doubles as bytes actually arrive, so a hostile length prefix backed
// by a short stream never costs more than twice the bytes received plus
// one chunk.
const readChunk = 64 << 10

// ErrFrameTooLarge is returned by WriteFrame when the encoded message
// would exceed the frame limit. Nothing has been written when it is
// returned, so the connection is still usable: it is a property of the
// message, not of the peer.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// MsgType identifies a protocol message.
type MsgType uint8

const (
	// MsgHello opens a connection: the coordinator announces the protocol
	// version, the executor's machine index, and the cluster size.
	MsgHello MsgType = iota + 1
	// MsgHelloOK acknowledges a compatible MsgHello.
	MsgHelloOK
	// MsgRun is the one request of an established connection: apply States
	// in order, then execute Tasks under Spec. With no tasks it is a pure
	// state flush.
	MsgRun
	// MsgResult answers a MsgRun whose states all applied and whose tasks
	// all ran; Outputs holds one entry per requested task.
	MsgResult
	// MsgError reports a request that failed on the executor; Error holds
	// the message.
	MsgError
)

// StateBlob is one replicated-state push riding in a MsgRun.
type StateBlob struct {
	Kind    StateKind
	Payload []byte
}

// TaskOutput is one task's result inside a MsgResult: the executor's
// measured nanos and the output payload.
type TaskOutput struct {
	Task    int
	Nanos   int64
	Payload []byte
}

// Msg is the single wire message shape; which fields a peer reads depends
// on Type. Every field is encoded in every frame (see WriteFrame), so any
// Msg survives a round trip whatever its Type.
type Msg struct {
	Type MsgType
	// Proto, Machine and Machines are the MsgHello handshake fields;
	// MsgHelloOK echoes Proto.
	Proto, Machine, Machines int
	// States, Spec and Tasks carry a MsgRun request.
	States []StateBlob
	Spec   Spec
	Tasks  []int
	// Outputs carries a MsgResult.
	Outputs []TaskOutput
	// Error carries a MsgError.
	Error string
}

// Encoded widths. Integers are big-endian; an int field travels as its
// 64-bit two's complement, an element count or byte length as a u32. The
// minima are what one element occupies with an empty payload — the bound a
// decoded count is held to before it sizes an allocation.
const (
	intLen        = 8
	countLen      = 4
	stateBlobMin  = 1 + countLen        // kind, payload length
	taskOutputMin = 2*intLen + countLen // task, nanos, payload length
	// fixedLen is the body of a message with nothing in it: type, the three
	// hello ints, spec kind and its three ints, and the four counts (states,
	// tasks, outputs, error).
	fixedLen = 1 + 3*intLen + 1 + 3*intLen + 4*countLen
)

func appendInt(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }
func appendCount(b []byte, n int) []byte { return binary.BigEndian.AppendUint32(b, uint32(n)) }

// spliceMin is the payload size from which FrameWriter hands the payload
// to the socket beside the frame's other bytes instead of copying it into
// them. It is a constant because the sizes it separates are two orders of
// magnitude apart on every workload: a task's lanes are 2-6 KB and cheaper
// copied into one write than given an iovec of their own, a set-up blob is
// 0.4-8 MB and copying it once per worker was a quarter of what a run
// allocated.
const spliceMin = 16 << 10

// WriteFrame writes one frame under DefaultMaxFrame and returns the bytes
// written. The frame is a big-endian u32 body length followed by the body,
// the fields of Msg in declaration order:
//
//	u8 Type; int Proto, Machine, Machines;
//	count States × {u8 Kind, count, payload bytes};
//	Spec {u8 Kind; int Mode, Col, Tasks};
//	count Tasks × int;
//	count Outputs × {int Task, int Nanos, count, payload bytes};
//	count, Error bytes
//
// with int a 64-bit two's complement and count a u32. It is a FrameWriter
// used once; a connection keeps one instead.
func WriteFrame(w io.Writer, m *Msg) (int, error) {
	var fw FrameWriter
	return fw.Write(w, m, DefaultMaxFrame)
}

// FrameWriter encodes frames (see WriteFrame for the layout) into a buffer
// it keeps, so a connection that owns one writes frame after frame without
// allocating. The buffer comes from the slab pool, and one it outgrows goes
// back there; Release returns the last. The zero value is ready; it is not
// safe for concurrent use.
type FrameWriter struct {
	// buf holds the frame's bytes other than the spliced payloads.
	buf []byte
	// vecs is the iovec list of a frame with spliced payloads — runs of buf
	// and the payloads between them — and from where in buf its next run
	// starts; out is the view of vecs net.Buffers.WriteTo consumes, made at
	// the first splice so that a writer which never splices stays off the
	// heap.
	vecs [][]byte
	from int
	out  *net.Buffers
}

// Write writes m as one frame under maxFrame (<=0 means DefaultMaxFrame,
// which is also the most it can be) and returns the bytes written. A
// message whose body would exceed the limit is refused with
// ErrFrameTooLarge before a byte is encoded or written. A payload of at
// least spliceMin bytes is not copied: it goes to w beside the bytes
// around it — one writev on a *net.TCPConn, sequential writes on any other
// writer — and must therefore stay unchanged until Write returns.
func (fw *FrameWriter) Write(w io.Writer, m *Msg, maxFrame int64) (int, error) {
	if maxFrame <= 0 || maxFrame > DefaultMaxFrame {
		maxFrame = DefaultMaxFrame
	}
	size := int64(fixedLen + len(m.Error))
	var spliced int64
	for i := range m.States {
		size += stateBlobMin + int64(len(m.States[i].Payload))
		spliced += splicedLen(m.States[i].Payload)
	}
	size += intLen * int64(len(m.Tasks))
	for i := range m.Outputs {
		size += taskOutputMin + int64(len(m.Outputs[i].Payload))
		spliced += splicedLen(m.Outputs[i].Payload)
	}
	if size > maxFrame {
		return 0, fmt.Errorf("%w: %d-byte body exceeds limit %d", ErrFrameTooLarge, size, maxFrame)
	}
	// Sized before the first append, so b never moves and the runs of it
	// that vecs collects along the way stay the frame's.
	if inline := 4 + size - spliced; int64(cap(fw.buf)) < inline {
		fw.Release()
		fw.buf = slab.Bytes(int(inline))[:0]
	}
	fw.vecs, fw.from = fw.vecs[:0], 0
	b := binary.BigEndian.AppendUint32(fw.buf[:0], uint32(size))
	b = append(b, byte(m.Type))
	b = appendInt(b, int64(m.Proto))
	b = appendInt(b, int64(m.Machine))
	b = appendInt(b, int64(m.Machines))
	b = appendCount(b, len(m.States))
	for i := range m.States {
		b = append(b, byte(m.States[i].Kind))
		b = fw.appendPayload(b, m.States[i].Payload)
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
		b = fw.appendPayload(b, m.Outputs[i].Payload)
	}
	b = append(appendCount(b, len(m.Error)), m.Error...)
	fw.buf = b

	if len(fw.vecs) == 0 {
		n, err := w.Write(b)
		if err != nil {
			return n, fmt.Errorf("transport: write frame: %w", err)
		}
		return n, nil
	}
	if fw.out == nil {
		fw.out = new(net.Buffers)
	}
	fw.vecs = append(fw.vecs, b[fw.from:])
	*fw.out = fw.vecs
	n, err := fw.out.WriteTo(w)
	// The frame is gone; its payloads are the caller's again.
	clear(fw.vecs[:cap(fw.vecs)])
	if err != nil {
		return int(n), fmt.Errorf("transport: write frame: %w", err)
	}
	return int(n), nil
}

// Release returns the writer's buffer to the slab pool. The writer stays
// ready: its next Write takes a buffer anew.
func (fw *FrameWriter) Release() {
	slab.PutBytes(fw.buf)
	fw.buf = nil
}

// splicedLen is how many of a payload's bytes stay out of the writer's own
// buffer.
func splicedLen(p []byte) int64 {
	if len(p) < spliceMin {
		return 0
	}
	return int64(len(p))
}

// appendPayload encodes a length-prefixed payload: copied after its count,
// or from spliceMin bytes on queued behind the run of b that ends here.
func (fw *FrameWriter) appendPayload(b, p []byte) []byte {
	b = appendCount(b, len(p))
	if len(p) < spliceMin {
		return append(b, p...)
	}
	fw.vecs = append(fw.vecs, b[fw.from:], p)
	fw.from = len(b)
	return b
}

// keepBodyMax is the largest body a FrameReader holds on to between
// frames: every steady-state frame is far below it, and a set-up frame's
// megabytes must not stay pinned on a worker for the rest of the run.
const keepBodyMax = 1 << 20

// ReadFrame reads one frame with a FrameReader used once, so the message
// and its payloads are the caller's to keep. See FrameReader.Read.
func ReadFrame(r io.Reader, maxFrame int64) (*Msg, int, error) {
	var fr FrameReader
	return fr.Read(r, maxFrame)
}

// FrameReader decodes frames into a body buffer and a message it keeps, so
// a connection that owns one reads frame after frame without allocating.
// The message Read returns — its States, Tasks and Outputs, and every
// payload in them, which are slices of the body — is valid until the next
// Read on the same FrameReader and not after: a receiver that needs any of
// it longer copies it out first. A body comes from the slab pool, grown
// there as a larger frame's bytes arrive, and one it outgrows or a larger
// frame replaces goes back; Release returns the last. The zero value is
// ready; it is not safe for concurrent use.
type FrameReader struct {
	hdr  [4]byte
	body []byte
	msg  Msg
	// The backing arrays msg's slices are cut from; msg's own fields are
	// nil when a frame has no elements, exactly as a one-shot decode's.
	states  []StateBlob
	tasks   []int
	outputs []TaskOutput
}

// Read reads one frame, enforcing maxFrame (<=0 means DefaultMaxFrame) on
// the length prefix before anything is allocated, and returns the decoded
// message with the bytes consumed. A body the kept buffer already covers
// is read straight into it; a larger one is read into a buffer that grows
// only as bytes arrive, so a length prefix larger than the data actually
// sent errors out without having allocated the claimed size. Every decoded
// count is checked against the bytes left in the body before it sizes an
// allocation; a body that ends before its fields do, or continues past
// them, is rejected as corrupt.
func (fr *FrameReader) Read(r io.Reader, maxFrame int64) (*Msg, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if cap(fr.body) > keepBodyMax {
		// Left to the collector, not kept in the pool either.
		fr.dropBody()
	}
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return nil, 0, err
	}
	n := int64(binary.BigEndian.Uint32(fr.hdr[:]))
	if n == 0 {
		return nil, 4, errors.New("transport: empty frame")
	}
	if n > maxFrame {
		return nil, 4, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	body := fr.body[:0]
	if int64(cap(body)) >= n {
		body = body[:n]
	} else {
		fr.Release()
		body = slab.Bytes(int(min(n, readChunk)))
	}
	for got := 0; ; {
		k, err := io.ReadFull(r, body[got:])
		got += k
		if err != nil {
			return nil, 4 + got, fmt.Errorf("transport: truncated frame body (%d of %d bytes): %w", got, n, err)
		}
		if int64(got) == n {
			break
		}
		grown := slab.Bytes(int(min(n, 2*int64(got))))
		copy(grown, body)
		slab.PutBytes(body)
		body = grown
	}
	fr.body = body
	if err := fr.decode(body); err != nil {
		return nil, 4 + len(body), err
	}
	return &fr.msg, 4 + len(body), nil
}

// Release returns the reader's body to the slab pool, which ends the
// message the last Read returned. The reader stays ready: its next Read
// takes a body anew.
func (fr *FrameReader) Release() {
	slab.PutBytes(fr.body)
	fr.dropBody()
}

// dropBody lets go of the body and of the kept elements that point into it.
func (fr *FrameReader) dropBody() {
	fr.body = nil
	clear(fr.states[:cap(fr.states)])
	clear(fr.outputs[:cap(fr.outputs)])
}

// errShort is the decoder's one truncation error: a field ran past the
// end of the body.
var errShort = errors.New("transport: decode frame: body ends inside a field")

// cursor walks a frame body. A read past the end sets err and yields
// zeros, so decode loops need no per-field error plumbing: the caller
// checks err once at the end. Element counts are the exception — each is
// checked against the bytes left (every element has a minimum encoded
// size) before it sizes an allocation.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n uint32) []byte {
	if uint64(n) > uint64(len(c.b)) {
		c.err, c.b = errShort, nil
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u8() uint8 {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if p := c.take(countLen); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) i64() int64 {
	if p := c.take(intLen); p != nil {
		return int64(binary.BigEndian.Uint64(p))
	}
	return 0
}

// int reads an int field, refusing a value the platform's int cannot hold.
func (c *cursor) int() int {
	v := c.i64()
	if int64(int(v)) != v {
		c.err = fmt.Errorf("transport: decode frame: integer field %d overflows int", v)
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed byte field as a slice of the body; an
// empty field is nil.
func (c *cursor) bytes() []byte {
	n := c.u32()
	if n == 0 {
		return nil
	}
	return c.take(n)
}

// resized returns s with length n, made anew at exactly that size when its
// capacity does not reach.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decode fills fr.msg from a frame body, cutting its slices from the kept
// backing arrays.
func (fr *FrameReader) decode(body []byte) error {
	c := cursor{b: body}
	m := &fr.msg
	m.Type = MsgType(c.u8())
	m.Proto, m.Machine, m.Machines = c.int(), c.int(), c.int()
	n := c.u32()
	if uint64(n)*stateBlobMin > uint64(len(c.b)) {
		return errShort
	}
	m.States = nil
	if n > 0 {
		fr.states = resized(fr.states, int(n))
		m.States = fr.states
		for i := range m.States {
			m.States[i] = StateBlob{Kind: StateKind(c.u8()), Payload: c.bytes()}
		}
	}
	m.Spec.Kind = Kind(c.u8())
	m.Spec.Mode, m.Spec.Col, m.Spec.Tasks = c.int(), c.int(), c.int()
	n = c.u32()
	if uint64(n)*intLen > uint64(len(c.b)) {
		return errShort
	}
	m.Tasks = nil
	if n > 0 {
		fr.tasks = resized(fr.tasks, int(n))
		m.Tasks = fr.tasks
		for i := range m.Tasks {
			m.Tasks[i] = c.int()
		}
	}
	n = c.u32()
	if uint64(n)*taskOutputMin > uint64(len(c.b)) {
		return errShort
	}
	m.Outputs = nil
	if n > 0 {
		fr.outputs = resized(fr.outputs, int(n))
		m.Outputs = fr.outputs
		for i := range m.Outputs {
			m.Outputs[i] = TaskOutput{Task: c.int(), Nanos: c.i64(), Payload: c.bytes()}
		}
	}
	m.Error = string(c.bytes())
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after frame body", len(c.b))
	}
	return nil
}
