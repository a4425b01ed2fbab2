// Package fixtures seeds the kernelcontract analyzer's true positives and
// accepted negatives. The file parses but is never compiled; the bitvec
// import resolves by path string only.
package fixtures

import (
	"fmt"

	"dbtf/internal/bitvec"
)

// badNoWidthCheck calls a word kernel on operands no check relates.
func badNoWidthCheck(a, b []uint64) int {
	return bitvec.AndCountWords(a, b) // want `call to bitvec\.AndCountWords without a visible operand-width check`
}

// badWritingKernel: the kernel that writes its first operand is held to
// the same contract as the counting ones.
func badWritingKernel(dst, a, b []uint64) int {
	return bitvec.OrCountWords(dst, a, b) // want `call to bitvec\.OrCountWords without a visible operand-width check`
}

// goodLenCheck establishes the contract with a len comparison first.
func goodLenCheck(a, b []uint64) int {
	if len(a) != len(b) {
		panic("width mismatch")
	}
	return bitvec.XorCountWords(a, b)
}

type vec struct {
	n     int
	words []uint64
}

// goodFieldCheck uses the bitvec-internal .n idiom.
func goodFieldCheck(v, w *vec) int {
	if v.n != w.n {
		panic("length mismatch")
	}
	return bitvec.AndNotCountWords(v.words, w.words)
}

// goodAnnotated asserts a structural invariant the analyzer cannot see.
func goodAnnotated(row, w1, w0 []uint64) int {
	//dbtf:samewidth row stride equals the delta width by construction
	return bitvec.AndAndNotCountWords(row, w1, w0)
}

// badBareAnnotation has the assertion without a reason.
func badBareAnnotation(row, w1, w0 []uint64, occ [][]uint64) (int, int) {
	//dbtf:samewidth
	return bitvec.GainCountsWords(row, w1, w0, occ) // want `requires a reason`
}

// hotCount is allocation-free, as annotated; the panic path may format.
//
//dbtf:noalloc
func hotCount(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mismatch %d != %d", len(a), len(b)))
	}
	c := 0
	for i, x := range a {
		c += int(x & b[i])
	}
	return c
}

// leakyCount claims noalloc but allocates four ways.
//
//dbtf:noalloc
func leakyCount(a []uint64) []uint64 {
	out := make([]uint64, 0, len(a)) // want `make in leakyCount`
	tmp := []uint64{1, 2}            // want `composite literal in leakyCount`
	out = append(out, tmp...)        // want `append in leakyCount`
	f := func() {}                   // want `function literal in leakyCount`
	f()
	return out
}

// unannotated may allocate freely.
func unannotated(n int) []uint64 {
	return make([]uint64, n)
}

// The parallel-kernel shape: a hot evaluation that fans its shards out
// through a prebuilt worker-pool closure. The closure and the shard split
// are built once at task-construction time; the noalloc body only stages
// state and makes method calls, which the analyzer accepts.

type pool struct{ threads int }

func (p *pool) Run(n int, fn func(int)) {
	for s := 0; s < n; s++ {
		fn(s)
	}
}

type shard struct{ lo, hi int }

type task struct {
	col      int
	deltas   []int64
	shards   []shard
	pool     *pool
	runShard func(int)
}

// goodParallelEval stages the column and hands the prebuilt closure to the
// pool — no allocation, no go statement, no fresh func literal.
//
//dbtf:noalloc
func goodParallelEval(t *task, c int) {
	if len(t.shards) == 1 {
		t.evalRows(c, &t.shards[0])
		return
	}
	t.col = c
	t.pool.Run(len(t.shards), t.runShard)
}

//dbtf:noalloc
func (t *task) evalRows(c int, sh *shard) {
	for r := sh.lo; r < sh.hi; r++ {
		t.deltas[r] = int64(c)
	}
}

// badParallelEval builds the shard closure inside the hot body and spawns
// bare goroutines per shard — both are per-column allocations.
//
//dbtf:noalloc
func badParallelEval(t *task, c int) {
	fn := func(s int) { t.evalRows(c, &t.shards[s]) } // want `function literal in badParallelEval`
	for s := range t.shards {
		go fn(s) // want `go statement in badParallelEval`
	}
}

// badShardSplit re-splits the row range on every evaluation instead of at
// build time.
//
//dbtf:noalloc
func badShardSplit(t *task, rows, n int) {
	t.shards = make([]shard, n) // want `make in badShardSplit`
	for s := range t.shards {
		t.shards[s] = shard{lo: rows * s / n, hi: rows * (s + 1) / n} // want `composite literal in badShardSplit`
	}
}
