package analysis

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// deletedName is one row of deletedNames.
type deletedName struct {
	pattern string
	scope   []string
	nonTest bool
	except  []string
	pr      string
}

// deletedNames is the one list of names that were deleted on purpose and
// must not come back: a second code path, a knob, a representation that a
// PR removed after measuring that nothing needed it. Each row is a regular
// expression, matched line by line over the Go files under scope (paths
// relative to the module root; a directory is walked), and the PR that
// deleted the name with the reason it went. testdata/, dot-directories and
// the frozen benchmark/ module are never in scope — benchmark/ compiles
// against the program, so it cannot name what the program no longer has.
// A row with nonTest set skips _test.go files; except lists files allowed
// to match. A scope naming a single .go file that does not exist is
// vacuously clean, which is how "this file stays deleted" is written.
var deletedNames = []deletedName{
	{pattern: `"encoding/gob"`, scope: []string{"."}, nonTest: true,
		pr: "PR 16: the wire envelope and the set-up blob are fixed binary layouts; gob would bring back per-frame type descriptors (DESIGN §12)"},
	{pattern: `SlabOver|bitvec\.Slab\(`, scope: []string{"."},
		pr: "PR 17: a sum-cache entry is an offset into a pooled flat array, not a BitVec carved per entry (DESIGN §4.1)"},
	{pattern: `sumDeltaSliced|sliceEntry|OnesCountRange`, scope: []string{"internal"},
		pr: "PR 19: a partial block's cache is a table like any other; the lazily sliced view is gone"},
	{pattern: `Horizontal`, scope: []string{"dbtf.go", "internal/core", "internal/transport"},
		pr: "PR 19: the horizontal strawman lives in internal/experiments, outside the engine and the wire"},
	{pattern: `NewWorkerThreads|cluster\.Pool|PoolFor|DrainExcess|shardState|TraceDelta\(`, scope: []string{"."},
		pr: "PR 20: a task is one thread; cluster.Stats is an alias of trace.StatsDelta, not a copy"},
	{pattern: `RWMutex`, scope: []string{"internal/core"},
		pr: "PR 20: the Worker's two-phase RunBatch went with intra-task threading; one Mutex serializes a worker"},
	{pattern: `^package `, scope: []string{"internal/cluster/pool.go"},
		pr: "PR 20: cluster.Pool's file stays deleted"},
	{pattern: `ThreadsPerMachine`, scope: []string{"."}, nonTest: true, except: []string{"dbtf.go"},
		pr: "PR 20: only the inert Deprecated field the frozen benchmark/ compiles against survives (ROADMAP item 7)"},
	{pattern: `KindBuild`, scope: []string{"."},
		pr: "PR 21: a column task is built where it is first evaluated; there is no build stage kind"},
	{pattern: `"build:`, scope: []string{"internal/core"},
		pr: "PR 21: no stage of a run is named build:<mode>; every round is a column or a total error"},
	{pattern: `backups`, scope: []string{"internal/cluster"},
		pr: "PR 21: a straggler's backup copy is priced, not run; a stage joins its workers and nothing else"},
	{pattern: `LockOrder|lockSummaryFact|CrossPackage|ExportPackageFact|PackageFact`, scope: []string{"internal/analysis"},
		pr: "PR 22: the suite is one phase over seven analyzers; lockorder saw none of the module's nested locks and the facts mechanism had no other need (DESIGN §8)"},
	{pattern: `InitDensity`, scope: []string{"dbtf.go", "internal/core"}, nonTest: true,
		pr: "PR 22: InitRandom's density is computed from the tensor and the rank where it is drawn; it is not an option, a runConfig word or a checkpoint field"},
	{pattern: `"transport"`, scope: []string{"cmd/dbtf"},
		pr: "PR 22: -workers being non-empty is what selects the TCP backend; there is no -transport flag"},
	{pattern: `runDBTFVariant|runBudgeted|variantCells|runBCPALSInit|failDetail`, scope: []string{"internal/experiments"},
		pr: "PR 23: every cell of the record is a Run made by the one budgeted function; there is no second runner, cell formatter or attribution helper (DESIGN §6)"},
	{pattern: `context\.WithTimeout`, scope: []string{"internal/experiments"}, nonTest: true, except: []string{"internal/experiments/experiments.go"},
		pr: "PR 23: the budget is armed in one place, budgeted; an experiment that times its own run classifies the outcome its own way"},
	{pattern: `countingSource|RNGDraws|fastForward`, scope: []string{"internal/core"},
		pr: "PR 23: only initialSet draws and a checkpoint exists only after it has, so a resumed run never needs the stream; checkpoint format 4 has no RNG state (DESIGN §7)"},
	{pattern: `RowInRange|BucketOffs|rowOf|colOf|blockOf|rowPtr`, scope: []string{"internal/tensor"}, nonTest: true,
		pr: "PR 24: one matricization kernel; every unfolding carries its (row, PVM block) bucket table, so a row and a block-row are arithmetic on it and there is no per-mode accessor, second row index or search (DESIGN §4)"},
	{pattern: `slices\.Sort|sort\.Search\(len\(row\)`, scope: []string{"internal/tensor"}, nonTest: true,
		pr: "PR 24: the stable counting sort over the sorted coordinate list emits every row sorted; the per-row comparison-sort fallback was 3-6.5x slower on the sparse shapes it was selected for"},
	{pattern: `offs != nil|BucketOffs`, scope: []string{"internal/partition"},
		pr: "PR 24: partition.Build has one count rule per block kind and one fill loop; it never tests for a missing bucket table"},
	{pattern: `[Ss]traggler|[Ss]peculat|retryBackoff`, scope: []string{"internal/cluster", "internal/trace"}, nonTest: true,
		pr: "PR 25: a fault costs what it wastes — the attempt's measured duration and one stage latency per relaunch; a straggler touched no program state and its race was a constant, so the ledger has no race and no wall-clock literal (DESIGN §7)"},
	{pattern: `FailFast|MaxRetries`, scope: []string{"."}, nonTest: true,
		pr: "PR 25: a task gets four attempts, Spark's default; over deterministic in-process kernels the only retry that can succeed is one a FaultPlan injected, so the bound is a constant, not two options and two flags"},
	{pattern: `evalColumn|encodeColumn\(|decodeColumn\(`, scope: []string{"internal/core"},
		pr: "PR 26: one eval stage decides two columns; the one-column stage is the same kernel at span 1, not a second sweep, and a column push carries the stage's columns"},
	{pattern: `ReadUvarint|ByteReader|bufio\.NewWriter`, scope: []string{"internal/tensor/binary.go"},
		pr: "PR 28: AppendBinary and DecodeBinary are the binary tensor format's one encoder and one decoder, on slices; the uvarint-at-a-time stream codec beside them was 2.5x slower to read and is the test oracle only"},
	{pattern: `encodeDeltas|decodeBody|make\(\[\]byte, 0, 4\+size\)`, scope: []string{"internal/core", "internal/transport"}, nonTest: true,
		pr: "PR 28: a frame is encoded into the writer's kept buffer and decoded into the reader's kept message, an eval reply appended into the partition's kept buffer; there is no allocate-per-frame codec beside them"},
	{pattern: `SetBool|CopyFrom|Parse\(`, scope: []string{"internal/bitvec"},
		pr: "PR 29: BitVec.SetBool, BitVec.CopyFrom and bitvec.Parse had no caller outside their own tests (ROADMAP item 8)"},
	{pattern: `\.CopyFrom\(|bitvec\.Parse\(|boolmat\.Mul\(`, scope: []string{"."},
		pr: "PR 29: no program code copies a BitVec in place or parses one from a string; a factor product is MulFactor"},
	{pattern: `[^.\w]Mul\(`, scope: []string{"internal/boolmat"},
		pr: "PR 29: the general matrix product had no caller outside its tests; MulFactor is the product the engine forms (Equation 6), held to a triple loop"},
	{pattern: `UnfoldAll|DecodeBinary\(|BinarySize\(|tensor\.Tensor|FromTensor|\.Coords\(`, scope: []string{"internal/core/worker.go", "internal/core/wirecodec.go"},
		pr: "PR 33: a worker is shipped only its own partitions' set-up bodies and decodes them straight into its blocks; the whole-tensor set-up — a tensor in the blob, unfolded and partitioned whole on every worker — is gone"},
	{pattern: `\bAndNotCountWords\b`, scope: []string{"."},
		pr: "the dead-kernel sweep: bitvec.AndNotCountWords had no caller outside its own tests; a test that needs |W1 &^ W0| counts it inline"},
	{pattern: `serve/loadgen|"loadtest"|runLoadTest`, scope: []string{"."},
		pr: "the load-generator retirement: the job server's contract has one check, FuzzServeScenario through the HTTP API; the shipped load generator and dbtf-serve -loadtest were a second, hand-scheduled checker of it"},
	{pattern: `NoCache|naiveSummer|naiveDelta|\bsummer\b`, scope: []string{"dbtf.go", "internal/core", "internal/experiments"}, nonTest: true,
		pr: "the uncached-ablation fold: no cache is V = 1, whose tables hold single columns and run the one eval kernel; it is not an option, a runConfig word or a checkpoint field"},
	{pattern: `secondOutcome|wireValue|countValue|uvarintLen`, scope: []string{"internal/core"}, nonTest: true,
		pr: "the Exp-Golomb eval replies: a reply's bodies are bit strings in the set-up bodies' codec, every lane with a nonzero outcome index sent as its difference from laneRef's; the uvarint bodies and their helpers are not kept beside them"},
	{pattern: `plainBody|deltasSize|appendDeltas|decodeDeltas|groupedReply|groupedBody|appendGrouped|plainReply`, scope: []string{"internal/core"},
		pr: "one eval reply body: the rows' hits and the region sizes the driver rebuilds the group bases from; there is no plain body of lanes and no choice between two bodies"},
	{pattern: `encodeColumns|decodeColumns`, scope: []string{"internal/core"},
		pr: "the flip pushes: a stage replicates the entries its commit flipped, Exp-Golomb distances, and nothing when it flipped none; there is no second column body of packed bits"},
	{pattern: `\.Unfold\(|UnfoldAll|\.Recycle\(\)|unfoldAndPartition|"unfold"`, scope: []string{"internal/core"}, nonTest: true,
		pr: "set-up from the coordinate list: each partition task builds its mode's partitioning from x.Coords() (partition.FromTensor); the engine makes no Unfolded and has no driver unfold section"},
	{pattern: `rowSource|rowSegments|segsPool|copySparse|copyDense|scratch \[\]int32`, scope: []string{"internal/partition"},
		pr: "one fill: a count and a fill pass over (row, block, column) triples from any of three sources, offsets written straight into the arena; no per-block row segments, no second copy of the nonzeros"},
	{pattern: `KernelContract|kernelcontract|//dbtf:noalloc|//dbtf:samewidth`, scope: []string{"."},
		pr: "the kernel-contract fold: each bitvec word kernel panics on operands of unequal word counts, and allocation pins cover every function the noalloc directive marked, so the analyzer and its two directives are gone (DESIGN §8)"},
	{pattern: `//dbtf:locks|//dbtf:bounded|Escape:`, scope: []string{"."},
		pr: "the kernel-contract fold: no program line used guardedby's //dbtf:locks or wirebound's //dbtf:bounded, and Analyzer.Escape was read only by dbtfvet's -list and -json"},
	{pattern: `^package `, scope: []string{"cmd/dbtfvet/main.go"},
		pr: "the kernel-contract fold: TestRepoClean is the suite's one front end, inside go test ./...; dbtfvet was a second one"},
	{pattern: `Determinism|WireBound|//dbtf:allow-nondeterministic`, scope: []string{"."}, nonTest: true,
		pr: "the analyzer audit: every mutation determinism and wirebound guarded fails a test — the golden and traffic pins, the decoders' forged-count and truncation tests — so the two analyzers and their directive are gone (DESIGN §8)"},
	{pattern: `BuildCarrying|unfoldedRows|BlockRow`, scope: []string{"internal/partition", "internal/tensor"},
		pr: "one set-up source per side: partition.Build is FromTensor on the tensor and mode its unfolding was cut from, so fill reads the coordinate list or Receive's bodies, never an unfolding's rows or buckets"},
	{pattern: `^package `, scope: []string{"examples/quickstart/main.go", "examples/intrusion/main.go", "examples/knowledgebase/main.go", "examples/linkprediction/main.go", "examples/rankselect/main.go"},
		pr: "tested examples: quickstart and intrusion are Example functions go test runs; knowledgebase and linkprediction printed factors that explained almost nothing, and rankselect repeated ExampleSelectRank and TestFactorizeTuckerSharedStructure"},
	{pattern: `MsgPing|MsgPong|MsgState\b|MsgAck`, scope: []string{"internal/transport", "internal/core"},
		pr: "one exchange per stage: pushed state rides in the next MsgRun, a dead worker is found by the request that needs it, and nothing pings (DESIGN §12)"},
	{pattern: `BENCH_|"compare"`, scope: []string{"cmd/dbtf-bench", "internal/experiments"},
		pr: "one regression gate: BENCHMARK.json gates regressions, and dbtf-bench prints the paper's record and writes or compares no snapshot"},
	{pattern: `Trace\s+func\(`, scope: []string{"."}, nonTest: true,
		pr: "one progress channel: the typed trace.Tracer reports a run; the printf-style Options.Trace hook is gone (DESIGN §10)"},
	{pattern: `[^.\w]Dial\(|tcp\.Dial\(|WriteFrameMax`, scope: []string{"."},
		pr: "the test-only wrappers: every caller dials with tcp.DialContext, and a frame under a caller's limit is written through a FrameWriter; tcp.Dial and transport.WriteFrameMax had no program caller"},
	{pattern: `func Fold\(|tensor\.Fold\(|SubTensor|ReadBinary\(`, scope: []string{"."},
		pr: "the test-only tensor API: no program code folded an unfolding back, cut a sub-tensor or read a binary tensor from a stream; TestUnfoldAllAgreesWithUnfoldAndNaive checks every nonzero's cell, and the binary tests call DecodeBinary"},
	{pattern: `unfoldingShapes|tooWide|sourcePart`, scope: []string{"internal/core", "internal/partition"},
		pr: "one placement: Equation 1 is tensor.Mode.Place, the int32 column guard is tensor.Mode.Columns, and Algorithm 3's cut is partition's cut, which layout, Carry and NewCarry read"},
	{pattern: `[Ss]pec\.Name\b|Spec\{Name:`, scope: []string{"cmd", "internal/cluster", "internal/core", "internal/experiments", "internal/transport"},
		pr: "name a stage once: an executor needs a stage's kind, mode and column, so the name stays on the coordinator, an argument of RunStage; a transport.Spec carries none, and the wire no name for the cluster's error to repeat (DESIGN §12)"},
	{pattern: `ctx == nil|ctx != nil|context\.Background\(\)`, scope: []string{"internal/cluster"}, nonTest: true,
		pr: "name a stage once: every caller of the stage seam passes a context; a nil one is a bug to fail on, not a default to fill in"},
	{pattern: `AdmissionConfig\{[^}]*RetryAfter|\b(cfg|c)\.RetryAfter\b`, scope: []string{"cmd", "internal/serve"},
		pr: "name a stage once: no flag or caller set AdmissionConfig.RetryAfter, so a budget rejection's hint is the constant budgetRetryAfter; AdmissionError.RetryAfter is the header's"},
	{pattern: `\bDensity\(|\bpack\(|RowBits`, scope: []string{"internal/partition"},
		pr: "store each nonzero once: a dense block keeps its packed rows and a nonzero count, no CSR, so there is no pass packing rows from offsets, no Block.Density over the offsets and no shared CSR row; a row is read through Block.AppendRow in either form"},
	{pattern: `\bCheckpointEvery\b`, scope: []string{"."},
		pr: "one checkpoint rule: the Boundary poll, asked at every iteration boundary with the last one marked, places every checkpoint, and a run with a CheckpointDir and no poll checkpoints at every boundary; cmd/dbtf's -checkpoint-every is a poll, not a period option beside it"},
}

// TestDeletedNamesStayDeleted replaces the `grep` steps CI used to carry
// (two of which could not fail: errexit ignores a negated command unless it
// is the script's last): tier-1 `go test ./...` runs every guard locally.
func TestDeletedNamesStayDeleted(t *testing.T) {
	root := moduleRoot(t)
	for _, g := range deletedNames {
		for _, hit := range grepGo(t, root, g) {
			t.Errorf("%s matches /%s/, deleted by %s", hit, g.pattern, g.pr)
		}
	}
}

// grepGo returns "file:line" for every line of a Go file in g's scope that
// matches its pattern. This file holds the patterns and is never searched.
func grepGo(t *testing.T, root string, g deletedName) []string {
	t.Helper()
	re := regexp.MustCompile(g.pattern)
	allowed := map[string]bool{"internal/analysis/deleted_test.go": true}
	for _, e := range g.except {
		allowed[e] = true
	}
	var hits []string
	for _, sc := range g.scope {
		top := filepath.Join(root, sc)
		if _, err := os.Stat(top); os.IsNotExist(err) && strings.HasSuffix(sc, ".go") {
			continue
		}
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if path != top && (name == "testdata" || name == "benchmark" || strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if !strings.HasSuffix(name, ".go") || g.nonTest && strings.HasSuffix(name, "_test.go") || allowed[rel] {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range bytes.Split(src, []byte("\n")) {
				if re.Match(line) {
					hits = append(hits, fmt.Sprintf("%s:%d", rel, i+1))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("searching %s: %v", sc, err)
		}
	}
	return hits
}
