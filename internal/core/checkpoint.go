package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"dbtf/internal/boolmat"
	"dbtf/internal/durable"
	"dbtf/internal/tensor"
)

// CheckpointFileName returns the checkpoint file name for a run with the
// given config+tensor fingerprint (see fingerprint). Namespacing the file
// by fingerprint means any number of jobs may share one checkpoint
// directory: each run only ever reads and atomically replaces its own
// file, and a changed configuration starts its own checkpoint lineage
// instead of clobbering another run's.
func CheckpointFileName(fp uint64) string {
	return fmt.Sprintf("checkpoint-%016x.dbtf", fp)
}

// checkpointMagic identifies the checkpoint format: "DBTFCKP" followed by
// the format version. There is one: 0x04. Images of the older layouts
// 0x01 to 0x03 are rejected like any other unknown version, never
// re-interpreted.
var checkpointMagic = [8]byte{'D', 'B', 'T', 'F', 'C', 'K', 'P', 0x04}

// checkpoint is a durable snapshot of a decomposition at an iteration
// boundary: everything Decompose needs to continue the run bit-identically
// to one that was never interrupted.
//
// Binary layout (all integers little-endian):
//
//	magic      8 bytes  "DBTFCKP" + version 0x04
//	payload:
//	  fingerprint      u64   config+tensor fingerprint (see fingerprint)
//	  iteration        u32   completed iterations
//	  converged        u8    1 if the convergence criterion already fired
//	  prevErr          u64   int64 bits of the last iteration's error
//	  initialErrors    u32 count, then count × u64 (int64 bits)
//	  iterationErrors  u32 count, then count × u64 (int64 bits)
//	  A, B, C          boolmat.AppendBinary layout each
//	crc32      u32  IEEE checksum of magic+payload
type checkpoint struct {
	Fingerprint     uint64
	Iteration       int
	Converged       bool
	PrevErr         int64
	InitialErrors   []int64
	IterationErrors []int64
	A, B, C         *boolmat.FactorMatrix
}

// encode makes the image in one allocation of its exact size.
func (ck *checkpoint) encode() []byte {
	factors := []*boolmat.FactorMatrix{ck.A, ck.B, ck.C}
	size := len(checkpointMagic) + 8 + 4 + 1 + 8 + 4 + 8*len(ck.InitialErrors) + 4 + 8*len(ck.IterationErrors) + 4
	for _, m := range factors {
		size += m.BinarySize()
	}
	le := binary.LittleEndian
	buf := append(make([]byte, 0, size), checkpointMagic[:]...)
	buf = le.AppendUint64(buf, ck.Fingerprint)
	buf = le.AppendUint32(buf, uint32(ck.Iteration))
	conv := byte(0)
	if ck.Converged {
		conv = 1
	}
	buf = append(buf, conv)
	buf = le.AppendUint64(buf, uint64(ck.PrevErr))
	for _, errs := range [][]int64{ck.InitialErrors, ck.IterationErrors} {
		buf = le.AppendUint32(buf, uint32(len(errs)))
		for _, e := range errs {
			buf = le.AppendUint64(buf, uint64(e))
		}
	}
	for _, m := range factors {
		buf = m.AppendBinary(buf)
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// cursor is a bounds-checked little-endian reader over the payload. The
// first read past the end (or malformed factor) sets err and every later
// read yields zero values, so a decoder reads its fields straight through
// and checks err once: truncation is reported, never sliced out of range.
type cursor struct {
	data []byte
	err  error
}

func (c *cursor) take(n int) []byte {
	if c.err == nil && len(c.data) < n {
		c.err = fmt.Errorf("core: checkpoint truncated: %d bytes left, want %d", len(c.data), n)
	}
	if c.err != nil {
		return make([]byte, n)
	}
	b := c.data[:n]
	c.data = c.data[n:]
	return b
}

func (c *cursor) u32() uint32 { return binary.LittleEndian.Uint32(c.take(4)) }

func (c *cursor) u64() uint64 { return binary.LittleEndian.Uint64(c.take(8)) }

func (c *cursor) i64s() []int64 {
	n := c.u32()
	// The count is bounded by the bytes actually present before anything
	// is allocated, so a corrupt length cannot force a huge allocation.
	if c.err == nil && uint64(len(c.data)) < uint64(n)*8 {
		c.err = fmt.Errorf("core: checkpoint truncated: %d bytes left, want %d errors", len(c.data), n)
	}
	if c.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(c.u64())
	}
	return out
}

func (c *cursor) factor() *boolmat.FactorMatrix {
	if c.err != nil {
		return nil
	}
	var m *boolmat.FactorMatrix
	m, c.data, c.err = boolmat.DecodeBinaryFactor(c.data)
	return m
}

// decodeCheckpoint parses and verifies a checkpoint image. Corrupt or
// truncated input returns an error — never a panic, and never a partially
// valid checkpoint: the CRC over the full image is verified before any
// field is parsed.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < len(checkpointMagic)+4 {
		return nil, fmt.Errorf("core: checkpoint too short: %d bytes", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch: %#x != %#x", got, sum)
	}
	if [7]byte(body[:7]) != [7]byte(checkpointMagic[:7]) {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", body[:8])
	}
	if body[7] != checkpointMagic[7] {
		return nil, fmt.Errorf("core: unsupported checkpoint version %#x", body[7])
	}
	c := &cursor{data: body[8:]}
	ck := &checkpoint{Fingerprint: c.u64(), Iteration: int(c.u32())}
	conv := c.take(1)[0]
	ck.Converged = conv == 1
	ck.PrevErr = int64(c.u64())
	ck.InitialErrors = c.i64s()
	ck.IterationErrors = c.i64s()
	ck.A, ck.B, ck.C = c.factor(), c.factor(), c.factor()
	if c.err != nil {
		return nil, c.err
	}
	if conv > 1 {
		return nil, fmt.Errorf("core: checkpoint converged flag %d not 0/1", conv)
	}
	if len(c.data) != 0 {
		return nil, fmt.Errorf("core: checkpoint has %d trailing bytes", len(c.data))
	}
	if ck.Iteration < 1 || len(ck.IterationErrors) != ck.Iteration {
		return nil, fmt.Errorf("core: checkpoint iteration %d does not match %d recorded errors",
			ck.Iteration, len(ck.IterationErrors))
	}
	if last := ck.IterationErrors[len(ck.IterationErrors)-1]; last != ck.PrevErr {
		return nil, fmt.Errorf("core: checkpoint error %d does not match last iteration error %d",
			ck.PrevErr, last)
	}
	return ck, nil
}

// writeCheckpoint durably replaces the run's checkpoint in dir, under
// CheckpointFileName(ck.Fingerprint): a crash at any point leaves either
// the old checkpoint or the new one, never a torn file. Returns the image
// size.
func writeCheckpoint(dir string, ck *checkpoint) (int64, error) {
	data := ck.encode()
	return durable.WriteFile(dir, CheckpointFileName(ck.Fingerprint), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// readCheckpoint loads the checkpoint for the run with fingerprint fp from
// dir. A missing file returns (nil, nil): resuming a run that was killed
// before its first checkpoint boundary simply starts fresh.
func readCheckpoint(dir string, fp uint64) (*checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFileName(fp)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}

// words returns the configuration as one 64-bit word per field of
// runConfig, in declaration order: an int as its two's complement. It is
// the one walk over the fields — fingerprint hashes the words and
// encodeSetup ships them — so a field added to runConfig is covered by both
// without being listed again, and a field of a kind the walk does not know
// panics the first time either runs.
func (cfg runConfig) words() []uint64 {
	return cfg.appendWords(make([]uint64, 0, reflect.TypeOf(cfg).NumField()))
}

// appendWords appends words() to dst.
func (cfg runConfig) appendWords(dst []uint64) []uint64 {
	fields := reflect.ValueOf(cfg)
	for n := 0; n < fields.NumField(); n++ {
		switch f := fields.Field(n); f.Kind() {
		case reflect.Int, reflect.Int64:
			dst = append(dst, uint64(f.Int()))
		default:
			panic(fmt.Sprintf("core: runConfig field %s has unhashable kind %v", fields.Type().Field(n).Name, f.Kind()))
		}
	}
	return dst
}

// setWords is the inverse of words, kind for kind: it fills the
// configuration from one word per field. len(words) must be the field
// count.
func (cfg *runConfig) setWords(words []uint64) {
	fields := reflect.ValueOf(cfg).Elem()
	for n, w := range words {
		switch f := fields.Field(n); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(w))
		default:
			panic(fmt.Sprintf("core: runConfig field %s has undecodable kind %v", fields.Type().Field(n).Name, f.Kind()))
		}
	}
}

// fingerprint hashes (FNV-1a 64) everything that determines a
// decomposition's trajectory: the run configuration — every field of
// runConfig, in declaration order (see words) — and the tensor's dims and
// nonzero coordinates. Resume refuses a checkpoint whose fingerprint
// differs — continuing under a changed config or tensor could not be
// bit-identical to an uninterrupted run.
func fingerprint(x *tensor.Tensor, cfg runConfig) uint64 {
	h := fnv64a{sum: 14695981039346656037}
	for _, w := range cfg.words() {
		h.u64(w)
	}
	i, j, k := x.Dims()
	coords := x.Coords()
	h.u64(uint64(i))
	h.u64(uint64(j))
	h.u64(uint64(k))
	h.u64(uint64(len(coords)))
	for _, co := range coords {
		h.u64(uint64(co.I))
		h.u64(uint64(co.J))
		h.u64(uint64(co.K))
	}
	return h.sum
}

type fnv64a struct{ sum uint64 }

func (h *fnv64a) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= uint64(byte(v >> (8 * i)))
		h.sum *= 1099511628211
	}
}
