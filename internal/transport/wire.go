package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtoVersion is the wire protocol version carried in the handshake;
// mismatched peers refuse each other instead of mis-decoding. Version 2
// is the fixed binary envelope with piggy-backed state (version 1 was a
// gob body with separate state and ping exchanges); version 3 is the same
// envelope around a set-up blob one configuration word shorter; version 4
// renumbers the stage kinds (the build kind is gone: a version-3 peer's
// eval would be read as a total-error); version 5 is a set-up blob one
// configuration word shorter again (a version-4 peer would read the seed
// as the init density); version 6 answers an eval with int32 lanes for up
// to two columns and pushes both columns in one blob (a version-5 peer
// would read int32 lanes as int64 rows).
const ProtoVersion = 6

// DefaultMaxFrame bounds a frame body when the caller does not choose a
// tighter limit: large enough for a pushed tensor, small enough that a
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
	// hello ints, spec kind and its three ints, and the five counts (states,
	// name, tasks, outputs, error).
	fixedLen = 1 + 3*intLen + 1 + 3*intLen + 5*countLen
)

func appendInt(b []byte, v int64) []byte     { return binary.BigEndian.AppendUint64(b, uint64(v)) }
func appendCount(b []byte, n int) []byte     { return binary.BigEndian.AppendUint32(b, uint32(n)) }
func appendBytes(b, p []byte) []byte         { return append(appendCount(b, len(p)), p...) }
func appendString(b []byte, s string) []byte { return append(appendCount(b, len(s)), s...) }

// WriteFrame writes one frame under DefaultMaxFrame and returns the bytes
// written. The frame is a big-endian u32 body length followed by the body,
// the fields of Msg in declaration order:
//
//	u8 Type; int Proto, Machine, Machines;
//	count States × {u8 Kind, count, payload bytes};
//	Spec {u8 Kind; int Mode, Col, Tasks; count, Name bytes};
//	count Tasks × int;
//	count Outputs × {int Task, int Nanos, count, payload bytes};
//	count, Error bytes
//
// with int a 64-bit two's complement and count a u32. The frame is built
// in one buffer sized up front and handed to w in a single Write.
func WriteFrame(w io.Writer, m *Msg) (int, error) {
	return WriteFrameMax(w, m, DefaultMaxFrame)
}

// WriteFrameMax is WriteFrame under a caller-chosen body limit (<=0 means
// DefaultMaxFrame, which is also the most it can be). A message whose body
// would exceed the limit is refused with ErrFrameTooLarge before a byte is
// allocated or written.
func WriteFrameMax(w io.Writer, m *Msg, maxFrame int64) (int, error) {
	if maxFrame <= 0 || maxFrame > DefaultMaxFrame {
		maxFrame = DefaultMaxFrame
	}
	size := int64(fixedLen + len(m.Spec.Name) + len(m.Error))
	for i := range m.States {
		size += stateBlobMin + int64(len(m.States[i].Payload))
	}
	size += intLen * int64(len(m.Tasks))
	for i := range m.Outputs {
		size += taskOutputMin + int64(len(m.Outputs[i].Payload))
	}
	if size > maxFrame {
		return 0, fmt.Errorf("%w: %d-byte body exceeds limit %d", ErrFrameTooLarge, size, maxFrame)
	}
	b := make([]byte, 0, 4+size)
	b = binary.BigEndian.AppendUint32(b, uint32(size))
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
	b = appendString(b, m.Spec.Name)
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
	b = appendString(b, m.Error)
	n, err := w.Write(b)
	if err != nil {
		return n, fmt.Errorf("transport: write frame: %w", err)
	}
	return n, nil
}

// ReadFrame reads one frame, enforcing maxFrame (<=0 means
// DefaultMaxFrame) on the length prefix before anything is allocated, and
// returns the decoded message with the bytes consumed. A body larger than
// one chunk is read into a buffer that grows only as bytes arrive, so a
// length prefix larger than the data actually sent errors out without
// having allocated the claimed size. The message's payloads are slices of
// the body buffer, which no later frame reuses, so a receiver may keep
// them; every decoded count is checked against the bytes left in the body
// before it sizes an allocation; a body that ends before its fields do, or
// continues past them, is rejected as corrupt.
func ReadFrame(r io.Reader, maxFrame int64) (*Msg, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return nil, 0, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 {
		return nil, 4, errors.New("transport: empty frame")
	}
	if n > maxFrame {
		return nil, 4, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	body := make([]byte, min(n, readChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, body[got:])
		got += k
		if err != nil {
			return nil, 4 + got, fmt.Errorf("transport: truncated frame body (%d of %d bytes): %w", got, n, err)
		}
		if int64(got) == n {
			break
		}
		grown := make([]byte, min(n, 2*int64(got)))
		copy(grown, body)
		body = grown
	}
	m, err := decodeBody(body)
	if err != nil {
		return nil, 4 + len(body), err
	}
	return m, 4 + len(body), nil
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

func decodeBody(body []byte) (*Msg, error) {
	c := &cursor{b: body}
	m := &Msg{Type: MsgType(c.u8())}
	m.Proto, m.Machine, m.Machines = c.int(), c.int(), c.int()
	n := c.u32()
	if uint64(n)*stateBlobMin > uint64(len(c.b)) {
		return nil, errShort
	}
	if n > 0 {
		m.States = make([]StateBlob, n)
		for i := range m.States {
			m.States[i] = StateBlob{Kind: StateKind(c.u8()), Payload: c.bytes()}
		}
	}
	m.Spec.Kind = Kind(c.u8())
	m.Spec.Mode, m.Spec.Col, m.Spec.Tasks = c.int(), c.int(), c.int()
	m.Spec.Name = string(c.bytes())
	n = c.u32()
	if uint64(n)*intLen > uint64(len(c.b)) {
		return nil, errShort
	}
	if n > 0 {
		m.Tasks = make([]int, n)
		for i := range m.Tasks {
			m.Tasks[i] = c.int()
		}
	}
	n = c.u32()
	if uint64(n)*taskOutputMin > uint64(len(c.b)) {
		return nil, errShort
	}
	if n > 0 {
		m.Outputs = make([]TaskOutput, n)
		for i := range m.Outputs {
			m.Outputs[i] = TaskOutput{Task: c.int(), Nanos: c.i64(), Payload: c.bytes()}
		}
	}
	m.Error = string(c.bytes())
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after frame body", len(c.b))
	}
	return m, nil
}
