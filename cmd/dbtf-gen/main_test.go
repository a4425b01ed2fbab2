package main

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"dbtf"
)

func TestParseDims(t *testing.T) {
	i, j, k, err := parseDims("4, 5,6")
	if err != nil || i != 4 || j != 5 || k != 6 {
		t.Fatalf("parseDims = %d,%d,%d (%v)", i, j, k, err)
	}
	for _, bad := range []string{"4,5", "4,5,6,7", "a,b,c", "0,1,1", "-1,2,3"} {
		if _, _, _, err := parseDims(bad); err == nil {
			t.Errorf("parseDims(%q) accepted", bad)
		}
	}
}

func TestRunRequiresOutput(t *testing.T) {
	if err := run([]string{"-type", "random"}); err == nil {
		t.Fatal("missing -o accepted")
	}
}

func TestRunUnknownType(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.tns")
	if err := run([]string{"-type", "bogus", "-o", out}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestRunRandom(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.tns")
	if err := run([]string{"-type", "random", "-dims", "8,8,8", "-density", "0.1", "-o", out}); err != nil {
		t.Fatal(err)
	}
	x, err := dbtf.ReadTensorFile(out)
	if err != nil {
		t.Fatal(err)
	}
	i, j, k := x.Dims()
	if i != 8 || j != 8 || k != 8 || x.NNZ() == 0 {
		t.Fatalf("generated %dx%dx%d nnz=%d", i, j, k, x.NNZ())
	}
}

func TestRunFactorsWithTruth(t *testing.T) {
	dir := t.TempDir()
	noisy := filepath.Join(dir, "noisy.tns")
	clean := filepath.Join(dir, "clean.tns")
	args := []string{"-type", "factors", "-dims", "16,16,16", "-rank", "2",
		"-factor-density", "0.3", "-additive", "0.1", "-o", noisy, "-truth", clean}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	xn, err := dbtf.ReadTensorFile(noisy)
	if err != nil {
		t.Fatal(err)
	}
	xc, err := dbtf.ReadTensorFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	if xn.NNZ() <= xc.NNZ() {
		t.Fatalf("additive noise missing: %d vs %d", xn.NNZ(), xc.NNZ())
	}
}

func TestRunDatasetTypes(t *testing.T) {
	for _, typ := range []string{"facebook", "dblp", "ddos-s", "ddos-l", "nell-s", "nell-l"} {
		out := filepath.Join(t.TempDir(), typ+".tns")
		if err := run([]string{"-type", typ, "-scale", "0.15", "-o", out}); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		x, err := dbtf.ReadTensorFile(out)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if x.NNZ() == 0 {
			t.Fatalf("%s: empty tensor", typ)
		}
	}
}

// TestFacebookOutputPinned: -type facebook builds only that stand-in, and
// since Facebook was always the first one drawn from the seed, its file is
// byte for byte what the build that drew all six wrote (recorded there).
func TestFacebookOutputPinned(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fb.btns")
	if err := run([]string{"-type", "facebook", "-scale", "0.5", "-seed", "3", "-binary", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got := h.Sum64(); got != 0x735d2a26987197a5 {
		t.Errorf("facebook at seed 3, scale 0.5: %d bytes hashing to %#x, recorded 0x735d2a26987197a5", len(data), got)
	}
}

// TestRunRefusesOutOfRangeFlags: each flag outside what the generators
// accept is an error, never a panic, a hang or a silently clamped tensor.
func TestRunRefusesOutOfRangeFlags(t *testing.T) {
	factors := []string{"-type", "factors", "-dims", "4,4,4", "-rank", "2"}
	for _, args := range [][]string{
		{"-density", "2"},
		{"-density", "-0.5"},
		{"-density", "NaN"},
		append(factors, "-factor-density", "2"),
		append(factors, "-factor-density", "-1"),
		append(factors, "-factor-density", "NaN"),
		append(factors, "-additive", "-1"),
		append(factors, "-additive", "NaN"),
		append(factors, "-factor-density", "0.9", "-additive", "100"),
		append(factors, "-destructive", "2"),
		append(factors, "-destructive", "-0.5"),
		append(factors, "-destructive", "NaN"),
		{"-type", "facebook", "-scale", "-1"},
		{"-type", "facebook", "-scale", "0"},
		{"-type", "facebook", "-scale", "NaN"},
		{"-type", "facebook", "-scale", "+Inf"},
		{"-list", "-scale", "-1"},
	} {
		out := filepath.Join(t.TempDir(), "x.tns")
		if err := run(append(args, "-o", out)); err == nil {
			t.Errorf("%v accepted", args)
		} else if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%v: refused (%v) but wrote %s", args, err, out)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list", "-scale", "0.15"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBinaryOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.btns")
	if err := run([]string{"-type", "random", "-dims", "10,10,10", "-density", "0.1", "-binary", "-o", out}); err != nil {
		t.Fatal(err)
	}
	x, err := dbtf.ReadTensorFile(out) // format sniffed by magic
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() == 0 {
		t.Fatal("empty binary tensor")
	}
}
