package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzWireDecode hammers the frame decoder with arbitrary byte streams.
// Truncated frames, oversized length prefixes, forged counts and garbage
// bodies must all error cleanly: never panic, and never allocate beyond a
// small multiple of the input no matter what a prefix or count claims.
// An input that decodes is a valid message in canonical form: it
// re-encodes to the very bytes consumed, and those decode to the same
// message. A FrameReader that is kept decodes every input twice and must
// agree with the one-shot read both times.
func FuzzWireDecode(f *testing.F) {
	seed := func(m *Msg) []byte {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&Msg{Type: MsgHello, Proto: ProtoVersion, Machine: 1, Machines: 3}))
	f.Add(seed(&Msg{Type: MsgRun, States: []StateBlob{{Kind: StateSetup, Payload: bytes.Repeat([]byte{7}, 100)}}}))
	f.Add(seed(&Msg{Type: MsgRun, Spec: Spec{Name: "eval:B", Kind: KindEval, Col: 3, Tasks: 4}, Tasks: []int{1, 2}}))
	f.Add(seed(&Msg{Type: MsgResult, Outputs: []TaskOutput{{Task: 0, Nanos: 5, Payload: []byte{1}}}}))
	valid := seed(&Msg{Type: MsgError, Error: "boom"})
	f.Add(valid[:2])                      // truncated header
	f.Add(valid[:len(valid)-1])           // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length prefix
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})

	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		// The largest honest allocation per input byte is the decoded
		// []StateBlob, four words per five encoded bytes, on top of the body
		// itself; a length prefix the stream does not back costs one read
		// chunk, and a second is slack for the fuzzing engine's own
		// allocations — far below what a forged count buys.
		var msg *Msg
		var n int
		var err error
		bound := 2*readChunk + 16*uint64(len(data))
		if grew := allocatedBytes(bound, func() { msg, n, err = ReadFrame(bytes.NewReader(data), limit) }); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of a %d-byte input", n, len(data))
		}
		// A kept reader agrees with the one-shot read, and again on a second
		// pass over its own leftovers.
		var fr FrameReader
		for pass := 0; pass < 2; pass++ {
			kept, kn, kerr := fr.Read(bytes.NewReader(data), limit)
			if (kerr == nil) != (err == nil) || kn != n || (err == nil && !reflect.DeepEqual(kept, msg)) {
				t.Fatalf("pass %d of a kept reader: %+v, %d, %v; a one-shot read: %+v, %d, %v", pass, kept, kn, kerr, msg, n, err)
			}
		}
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("nil message without error")
		}
		// The decoder consumed exactly header + declared body.
		declared := int(binary.BigEndian.Uint32(data[:4]))
		if n != 4+declared {
			t.Fatalf("consumed %d bytes, frame declared 4+%d", n, declared)
		}
		// A frame that decodes is canonical: the message re-encodes to the
		// bytes it came from, and they decode to the same message.
		var buf bytes.Buffer
		if _, werr := WriteFrame(&buf, msg); werr != nil {
			t.Fatalf("re-encoding a decoded frame failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-encoded frame differs from its source:\n got %x\nwant %x", buf.Bytes(), data[:n])
		}
		again, _, rerr := ReadFrame(&buf, limit)
		if rerr != nil || !reflect.DeepEqual(again, msg) {
			t.Fatalf("decode(encode(m)) = %+v, %v; want %+v", again, rerr, msg)
		}
	})
}
