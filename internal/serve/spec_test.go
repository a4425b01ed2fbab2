package serve

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"dbtf/internal/core"
	"dbtf/internal/tensor"
)

func TestDecodeJobSpecValid(t *testing.T) {
	spec, err := DecodeJobSpec(strings.NewReader(
		`{"tenant":"acme","tensor_id":"t1","rank":4,"max_iter":20,"seed":7,"priority":-3}`))
	if err != nil {
		t.Fatalf("DecodeJobSpec: %v", err)
	}
	if spec.Tenant != "acme" || spec.TensorID != "t1" || spec.Rank != 4 ||
		spec.MaxIter != 20 || spec.Seed != 7 || spec.Priority != -3 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"tenant":"a","tensor_id":"t","rank":2,"rnak":3}`,
		"missing tenant":   `{"tensor_id":"t","rank":2}`,
		"bad tenant chars": `{"tenant":"a b","tensor_id":"t","rank":2}`,
		"rank zero":        `{"tenant":"a","tensor_id":"t","rank":0}`,
		"rank too big":     `{"tenant":"a","tensor_id":"t","rank":65}`,
		"trailing data":    `{"tenant":"a","tensor_id":"t","rank":2}{"again":1}`,
		"negative iter":    `{"tenant":"a","tensor_id":"t","rank":2,"max_iter":-1}`,
		"huge priority":    `{"tenant":"a","tensor_id":"t","rank":2,"priority":1000}`,
		"unknown init":     `{"tenant":"a","tensor_id":"t","rank":2,"init":"bogus"}`,
		"topfiber + sets":  `{"tenant":"a","tensor_id":"t","rank":2,"init":"topfiber","initial_sets":4}`,
		// Specs the engine refuses must not decode: they used to take a
		// queue slot and fail inside Decompose.
		"min_iter > default max_iter": `{"tenant":"a","tensor_id":"t","rank":2,"min_iter":20}`,
		"min_iter > max_iter":         `{"tenant":"a","tensor_id":"t","rank":2,"max_iter":3,"min_iter":5}`,
		"negative tolerance":          `{"tenant":"a","tensor_id":"t","rank":2,"tolerance":-1}`,
		"not json":                    `rank=2`,
		"empty":                       ``,
	}
	for name, body := range cases {
		if _, err := DecodeJobSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: DecodeJobSpec accepted %q", name, body)
		}
	}
}

func TestJobSpecInitScheme(t *testing.T) {
	for body, want := range map[string]core.InitScheme{
		`{"tenant":"a","tensor_id":"t","rank":2}`:                   core.InitFiberSample,
		`{"tenant":"a","tensor_id":"t","rank":2,"init":"fiber"}`:    core.InitFiberSample,
		`{"tenant":"a","tensor_id":"t","rank":2,"init":"random"}`:   core.InitRandom,
		`{"tenant":"a","tensor_id":"t","rank":2,"init":"topfiber"}`: core.InitTopFiber,
	} {
		spec, err := DecodeJobSpec(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := spec.Options().Init; got != want {
			t.Errorf("%s: Options().Init = %v, want %v", body, got, want)
		}
	}
}

func TestDecodeJobSpecBoundsBody(t *testing.T) {
	// An endless body must be rejected after at most MaxSpecBytes+1
	// bytes, not buffered.
	huge := strings.NewReader(`{"tenant":"` + strings.Repeat("a", 1<<20) + `"}`)
	if _, err := DecodeJobSpec(huge); err == nil {
		t.Fatal("accepted oversized spec")
	}
	if read := int(huge.Size()) - huge.Len(); read > MaxSpecBytes+1 {
		t.Fatalf("consumed %d bytes, cap is %d", read, MaxSpecBytes+1)
	}
}

func TestDecodeTensorBothFormats(t *testing.T) {
	x := tensor.MustFromCoords(3, 4, 5, []tensor.Coord{{I: 0, J: 1, K: 2}, {I: 2, J: 3, K: 4}})
	var bin bytes.Buffer
	if err := x.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTensor(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if !got.Equal(x) {
		t.Fatal("binary round trip mismatch")
	}
	var txt bytes.Buffer
	if _, err := x.WriteTo(&txt); err != nil {
		t.Fatal(err)
	}
	got, err = DecodeTensor(bytes.NewReader(txt.Bytes()))
	if err != nil {
		t.Fatalf("text decode: %v", err)
	}
	if !got.Equal(x) {
		t.Fatal("text round trip mismatch")
	}
	if _, err := DecodeTensor(strings.NewReader("")); err == nil {
		t.Fatal("accepted empty body")
	}
}

// FuzzJobSpecDecode is the satellite fuzz target for the HTTP job-spec
// parser: arbitrary bodies must never panic, never read unbounded
// input, and anything accepted must itself validate — against the service
// limits and against the engine, so an admitted job cannot fail option
// validation inside Decompose.
func FuzzJobSpecDecode(f *testing.F) {
	f.Add(`{"tenant":"acme","tensor_id":"t1","rank":4}`)
	f.Add(`{"tenant":"a","tensor_id":"t","rank":2,"max_iter":20,"min_iter":5,"initial_sets":3,"seed":-9,"tolerance":1,"priority":100}`)
	f.Add(`{"tenant":"a","tensor_id":"t","rank":2,"init":"topfiber"}`)
	f.Add(`{"tenant":"a","tensor_id":"t","rank":2,"init":"random","initial_sets":4}`)
	f.Add(`{"tenant":"` + strings.Repeat("x", 100) + `","tensor_id":"t","rank":2}`)
	f.Add(`{}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"rank":1e9}`)
	f.Add("\x00\xff\xfe")
	f.Add(`{"tenant":"a","tensor_id":"t","rank":2,"min_iter":20}`)
	f.Add(`{"tenant":"a","tensor_id":"t","rank":2,"max_iter":3,"min_iter":5}`)
	f.Fuzz(func(t *testing.T, body string) {
		r := strings.NewReader(body)
		spec, err := DecodeJobSpec(r)
		if consumed := int(r.Size()) - r.Len(); consumed > MaxSpecBytes+1 {
			t.Fatalf("consumed %d bytes of body, cap is %d", consumed, MaxSpecBytes+1)
		}
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("decoded spec fails its own validation: %v", verr)
		}
		if verr := spec.Options().Validate(); verr != nil {
			t.Fatalf("decoded spec %+v yields options the engine rejects: %v", spec, verr)
		}
	})
}

// FuzzTensorDecode guards the tensor-upload parser against adversarial
// bodies: no panics, and a forged binary header must not cause a giant
// allocation (the parser caps preallocation and grows against bytes
// actually present).
func FuzzTensorDecode(f *testing.F) {
	x := tensor.MustFromCoords(3, 4, 5, []tensor.Coord{{I: 0, J: 1, K: 2}})
	var bin bytes.Buffer
	if err := x.WriteBinary(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	var txt bytes.Buffer
	if _, err := x.WriteTo(&txt); err != nil {
		f.Fatal(err)
	}
	f.Add(txt.Bytes())
	// A forged header claiming 2^31 nonzeros with no payload.
	forged := append([]byte{}, bin.Bytes()[:16]...)
	f.Add(forged)
	f.Add([]byte("DBT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		// The HTTP handler bounds bodies with MaxBytesReader; mirror a
		// small bound here so the text parser cannot loop over gigabytes.
		const bound = 1 << 20
		tt, err := DecodeTensor(io.LimitReader(bytes.NewReader(body), bound))
		if err != nil {
			return
		}
		if tt.NNZ() > bound {
			t.Fatalf("decoded %d nonzeros from %d input bytes", tt.NNZ(), len(body))
		}
	})
}
