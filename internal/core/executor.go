package core

import (
	"fmt"
	"math/bits"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
)

// modeRoles is the one declaration of which factor matrix plays which part
// in each factor update X₍ₙ₎ ≈ upd ∘ (pvm ⊙ cached)ᵀ: the updated matrix
// (its rows are the unfolding's rows), the matrix whose rows index the PVM
// blocks (the first Khatri–Rao operand), and the matrix the row-summation
// caches are built over (the second). Values index executor.f. The name
// labels the update's stage spans and the "mode" pprof label. totalError
// evaluates the mode-1 unfolding, so it reads modeRoles[0].
var modeRoles = [3]struct {
	name             string
	upd, pvm, cached int
}{
	{"A", 0, 2, 1}, // X₍₁₎ ≈ A ∘ (C ⊙ B)ᵀ
	{"B", 1, 2, 0}, // X₍₂₎ ≈ B ∘ (C ⊙ A)ᵀ
	{"C", 2, 1, 0}, // X₍₃₎ ≈ C ∘ (B ⊙ A)ᵀ
}

// executor holds one run's replicated state — the three vertical
// partitionings, per-machine cache registries, the current factor matrices,
// the column tasks of the update in progress — and the only implementation
// of every partition-local stage kernel of the paper: setup (Algorithm 3),
// eval (Algorithm 4, building Algorithm 5's tables on first use),
// totalError. Both backends run it.
// The driver's spans all M logical machines and is called through the
// cluster's local stage closures, typed and by reference; a Worker's spans
// the one machine its process is and is called through the wire codec.
// Where a partition currently runs is the only thing the two disagree
// about, and that is the place function.
//
// An executor is not synchronized. Stage tasks may run concurrently because
// tasks for different partitions touch disjoint entries of the task tables
// and the registries lock internally; state changes (setup or install,
// setFactors, column commits) happen between stages. A Worker serializes
// with its lock.
type executor struct {
	cfg  runConfig
	dims [3]int
	// span is the most columns one eval stage decides: lookahead, except in
	// the tests that schedule one column a stage as the lookahead's oracle.
	span int
	// reg[m] shares row-summation caches among the partitions placed on
	// machine m (Lemmas 4 and 5 count the build once per machine); place(pi)
	// is the machine partition pi currently runs on.
	reg   []*machineRegistry
	place func(pi int) int
	px    [3]*partition.Partitioned
	// f holds the current A, B, C. Column commits mutate them in place, so
	// live column tasks observe every committed entry.
	f [3]*boolmat.FactorMatrix
	// tasks[mode][pi] is the column task of partition pi for the mode's
	// update, made at its first build and kept for the run; it serves evals
	// while its epoch is the executor's (see eval). deltas[mode][pi] holds
	// partition pi's lanes of the mode's stage in flight (see lanes), made at
	// first use and kept likewise. replies[mode][pi] is the same lanes
	// encoded for the wire, on a worker: grown at the partition's first reply
	// and kept likewise.
	tasks   [3][]*columnTask
	deltas  [3][][]int32
	replies [3][][]byte
	// epoch advances whenever every column task goes stale: at setFactors
	// and at a machine loss.
	epoch uint64
}

// newExecutor returns an executor spanning machines logical machines,
// before setup or install.
func newExecutor(cfg runConfig, dims [3]int, machines int, place func(pi int) int, span int) *executor {
	ex := &executor{cfg: cfg, dims: dims, span: span, reg: make([]*machineRegistry, machines), place: place}
	for m := range ex.reg {
		ex.reg[m] = &machineRegistry{entries: map[registryKey]*machineCache{}}
	}
	return ex
}

// setup builds the three vertical partitionings from the unfoldings — the
// one-off distribution of Algorithm 2, lines 1-3 — and installs them. each
// runs the three per-mode builds: a cluster stage on the driver, a plain
// loop on a worker. The partitionings hold their own copy of every nonzero,
// so the unfoldings are recycled. What setup builds, on error the modes
// built so far, is its caller's to keep or release (see install).
func (ex *executor) setup(ux [3]*tensor.Unfolded, each func(n int, fn func(m int) error) error) error {
	err := each(len(ux), func(m int) error {
		ex.px[m] = partition.Build(ux[m], ex.cfg.Partitions)
		return nil
	})
	if err != nil {
		return err
	}
	for _, u := range ux {
		u.Recycle()
	}
	ex.install(ex.px)
	return nil
}

// install hands the executor a built set of partitionings and sizes the
// task tables. The executor reads the set and never releases it: whoever
// built it does.
func (ex *executor) install(px [3]*partition.Partitioned) {
	ex.px = px
	for m, p := range px {
		ex.tasks[m] = make([]*columnTask, len(p.Parts))
		ex.deltas[m] = make([][]int32, len(p.Parts))
		ex.replies[m] = make([][]byte, len(p.Parts))
	}
}

// release returns every machine's cache tables to the slab pool. The caller
// guarantees no stage can still touch them.
func (ex *executor) release() {
	for _, reg := range ex.reg {
		reg.clearRelease()
	}
}

// checkFactorShapes is the one statement of what a factor triple must look
// like for a run: A is I×R, B is J×R, C is K×R. It guards everything that
// arrives from outside the driver's own arithmetic — a checkpoint being
// resumed, a factor push from the wire.
func checkFactorShapes(f [3]*boolmat.FactorMatrix, dims [3]int, rank int) error {
	for n, m := range f {
		if m.Rows() != dims[n] || m.Rank() != rank {
			return fmt.Errorf("factor %s is %dx%d, want %dx%d", modeRoles[n].name, m.Rows(), m.Rank(), dims[n], rank)
		}
	}
	return nil
}

// setFactors installs the factor matrices every later stage reads. The
// column tasks always go stale (see eval). The caches go (back to the slab
// pool) only when the matrices themselves are replaced — a losing initial
// set, a decoded push from the wire. Re-installing the same matrices keeps them,
// keyed by version: a table outlives the iteration that built it for as long
// as its matrix stays as it was — the one totalError builds over B serves
// iteration 2's A-update. Callers hold exclusive access with every stage
// joined.
func (ex *executor) setFactors(a, b, c *boolmat.FactorMatrix) error {
	next := [3]*boolmat.FactorMatrix{a, b, c}
	if err := checkFactorShapes(next, ex.dims, ex.cfg.Rank); err != nil {
		return fmt.Errorf("core: installing factors: %w", err)
	}
	ex.epoch++
	if next != ex.f {
		for _, reg := range ex.reg {
			reg.clearRelease()
		}
		ex.f = next
	}
	return nil
}

// machineLost is what losing machine m costs the executor, at a stage
// boundary with every task joined: m's cache tables died with it, and the
// column tasks go stale too — a task reassigned off m holds summers over
// those tables — so each partition's next eval rebuilds its task on the
// machine it now runs on (see eval). Survivors' own tables are still
// registered; the inherited partitions' are built there, the rebuild a
// surviving worker pays at its first eval of an inherited partition.
func (ex *executor) machineLost(m int) {
	ex.epoch++
	ex.reg[m].clearRelease()
}

// part resolves a stage task's address to its partition, rejecting what a
// mismatched peer could send: a mode or partition out of range, a stage
// ahead of the state it needs.
func (ex *executor) part(mode, pi int) (*partition.Partition, error) {
	if mode < 0 || mode >= len(modeRoles) {
		return nil, fmt.Errorf("core: mode %d outside [0,2]", mode)
	}
	if ex.px[mode] == nil || ex.f[0] == nil {
		return nil, fmt.Errorf("core: mode %d stage before setup and factors", mode)
	}
	if parts := ex.px[mode].Parts; pi >= 0 && pi < len(parts) {
		return parts[pi], nil
	}
	return nil, fmt.Errorf("core: task %d outside %d partitions", pi, len(ex.px[mode].Parts))
}

// build readies partition pi's column task for the mode's update: the
// factors it reads and its block summers, resolved through the cache
// registry of the machine the partition runs on now (Algorithm 5), plus
// every buffer the column loop needs, so evaluating a column on a built
// task allocates nothing. The task is made at the partition's first build
// and refilled in place at every later one; its buffers grow only when a
// table has more groups than any before. eval is its only caller.
func (ex *executor) build(mode, pi int) (*columnTask, error) {
	part, err := ex.part(mode, pi)
	if err != nil {
		return nil, err
	}
	t := ex.tasks[mode][pi]
	if t == nil {
		t = newColumnTask(part, ex.lanes(mode, pi), ex.cfg.NoCache)
		ex.tasks[mode][pi] = t
	}
	role := modeRoles[mode]
	t.a, t.mf = ex.f[role.upd], ex.f[role.pvm]
	t.summers = ex.summers(t.summers[:0], pi, part, ex.f[role.cached])
	if !ex.cfg.NoCache && len(t.summers) > 0 {
		// Every table group but the flipped bit's own can occlude.
		if occ := t.summers[0].(*sumcache.Cache).NumGroups() - 1; cap(t.delta.Occ) < occ {
			t.delta.Occ = make([][]uint64, 0, occ)
		}
	}
	t.epoch = ex.epoch
	return t, nil
}

// lanes returns the buffer for partition pi's per-row error differences in
// the mode's update, sized for the widest stage: the accumulator of every
// column task built for the partition here, and what the driver decodes
// the partition's reply into when the task ran on a remote executor.
func (ex *executor) lanes(mode, pi int) []int32 {
	if ex.deltas[mode][pi] == nil {
		ex.deltas[mode][pi] = make([]int32, ex.dims[modeRoles[mode].upd]*laneCount(ex.span))
	}
	return ex.deltas[mode][pi]
}

// stageSpan returns how many columns the eval stage starting at column col
// decides: the lookahead, cut to one for the last column of an odd rank.
func (ex *executor) stageSpan(col int) int { return min(ex.span, ex.cfg.Rank-col) }

// eval evaluates the stage that starts at column col of the mode's update
// on partition pi and returns the per-row error differences e1 − e0
// (Algorithm 4, lines 4-9), laneCount(stageSpan(col)) to a row: see
// columnTask.eval. The slice is the task's own accumulator, valid until the
// task's next eval: the driver reads it in place, a worker encodes it.
//
// This is the one place a column task is (re)built and the one rule of
// when it is valid: setFactors makes every task stale (a task holds
// summers over factor versions the coming update supersedes), as does a
// machine loss (over tables that died), and the first eval to ask a
// partition for a column afterwards rebuilds its task — column
// 0 on the partition's home, a later column on the executor a reassignment
// or a rejoin moved it to, driver and worker alike; the paper's lazy
// mapPartitions is pipelined into its first collect the same way. Which
// column comes first cannot matter: a task keeps nothing across stages and
// the cached matrix does not change during its own mode's update.
func (ex *executor) eval(mode, pi, col int) ([]int32, error) {
	if _, err := ex.part(mode, pi); err != nil {
		return nil, err
	}
	if col < 0 || col >= ex.cfg.Rank {
		return nil, fmt.Errorf("core: eval column %d outside rank %d", col, ex.cfg.Rank)
	}
	t := ex.tasks[mode][pi]
	if t == nil || t.epoch != ex.epoch {
		var err error
		if t, err = ex.build(mode, pi); err != nil {
			return nil, err
		}
	}
	return t.eval(col, ex.stageSpan(col)), nil
}

// totalError computes mode-1 partition pi's share of |X ⊕ X̂|: the
// evaluation of an initial set in iteration 1, and the recount the tests hold
// every later iteration's carried objective to.
func (ex *executor) totalError(pi int) (int64, error) {
	part, err := ex.part(0, pi)
	if err != nil {
		return 0, err
	}
	role := modeRoles[0]
	return partitionError(part, ex.f[role.upd], ex.f[role.pvm], ex.summers(make([]summer, 0, len(part.Blocks)), pi, part, ex.f[role.cached])), nil
}

// summer yields Boolean row summations for rank masks; it is the access
// interface shared by the cache tables (*sumcache.Cache) and the uncached
// ablation.
type summer interface {
	// Sum returns the words of the Boolean row summation for mask and its
	// popcount; scratch must hold the entry's words and may back the result.
	Sum(mask uint64, scratch []uint64) ([]uint64, int)
}

// naiveSummer recomputes every row summation by ORing the selected factor
// columns, sliced to the block range — the behaviour DBTF's cache replaces.
type naiveSummer struct {
	cols [][]uint64 // words of M_s's columns sliced to the block range
}

func (s naiveSummer) Sum(mask uint64, scratch []uint64) ([]uint64, int) {
	clear(scratch)
	pop := 0
	for m := mask; m != 0; m &= m - 1 {
		//dbtf:samewidth every column is sliced to the block width the caller sized scratch for
		pop = bitvec.OrCountWords(scratch, scratch, s.cols[bits.TrailingZeros64(m)])
	}
	return scratch, pop
}

// entryWords returns the words a summation of width bits occupies.
func entryWords(width int) int { return (width + bitvec.WordBits - 1) / bitvec.WordBits }

// summers appends to out a summer per block of partition pi over the
// caching matrix ms: the distributed part of Algorithm 5. Each block's
// table — over the rows of ms the block covers, all of them unless the
// partition boundary cut its PVM product — is resolved through the registry
// of the machine the partition is placed on, so partitions sharing a
// machine share one table per range, and stages sharing a caching matrix
// (the B- and C-updates both cache over A; totalError's cache over B serves
// iteration 2's A-update) share it too, for as long as the matrix's version
// is unchanged.
func (ex *executor) summers(out []summer, pi int, p *partition.Partition, ms *boolmat.FactorMatrix) []summer {
	if ex.cfg.NoCache {
		cols := ms.Columns()
		for _, b := range p.Blocks {
			sliced := make([][]uint64, len(cols))
			for r, col := range cols {
				sliced[r] = col.Slice(b.InnerLo, b.InnerLo+b.Width()).Words()
			}
			out = append(out, naiveSummer{cols: sliced})
		}
		return out
	}
	reg := ex.reg[ex.place(pi)]
	var table *sumcache.Cache
	lo, hi := -1, -1
	for _, b := range p.Blocks {
		// Whole PVM products all share the full range, and they come in a
		// run between the partition's cut ends: one lookup per run.
		if b.InnerLo != lo || b.InnerLo+b.Width() != hi {
			lo, hi = b.InnerLo, b.InnerLo+b.Width()
			table = reg.cacheFor(ms, lo, hi, ex.cfg.GroupBits)
		}
		out = append(out, table)
	}
	return out
}

// partitionError computes one mode-1 partition's share of |X ⊕ X̂| from
// pre-resolved summers over b: rows indexed by a, PVM blocks by c.
func partitionError(part *partition.Partition, a, c *boolmat.FactorMatrix, summers []summer) int64 {
	widest := 0
	for _, blk := range part.Blocks {
		widest = max(widest, blk.Width())
	}
	scratch := make([]uint64, entryWords(widest))
	var e int64
	for bi, blk := range part.Blocks {
		kMask := c.RowMask(blk.PVM)
		sm := summers[bi]
		blkScratch := scratch[:entryWords(blk.Width())]
		for r := 0; r < a.Rows(); r++ {
			sum, pop := sm.Sum(a.RowMask(r)&kMask, blkScratch)
			e += blk.RowError(r, sum, pop)
		}
	}
	return e
}
