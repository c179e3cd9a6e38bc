package train

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"adapipe/internal/tensor"
)

// The train_1f1b workload of bench/train.go: the shape the repo benchmark
// gates, so the tests below speak about the executor the benchmark measures.
var (
	benchShape  = Config{Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 32, Seed: 1}
	benchBounds = []int{0, 4, 7, 10}
	benchSpecs  = []string{"saveall", "savenone", "alternate"}
)

const (
	benchMicros = 8
	benchLR     = 1e-3
)

// benchRig is one pipeline at the bench shape plus the batch stream it trains
// on (bench/train.go's trainRig, seed 1).
type benchRig struct {
	pipe   *Pipeline
	corpus *Corpus
	rng    *tensor.RNG
}

// benchPipe builds a bench-shaped pipeline under one of the three save
// policies. With poison set every stage arena NaN-fills what is released to
// it, so a read after release cannot go unnoticed.
func benchPipe(t testing.TB, shape Config, bounds []int, spec string, poison bool) *Pipeline {
	t.Helper()
	net, err := NewNet(shape)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Split(net, bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	block := 0
	for _, st := range stages {
		st.arena.poison = poison
		for b := range st.Saves {
			if spec == "saveall" || spec == "alternate" && block%2 == 0 {
				st.Saves[b] = SaveAll()
			} else {
				st.Saves[b] = SaveNone()
			}
			block++
		}
	}
	return NewPipeline(stages, benchLR)
}

func newBenchRig(t testing.TB, shape Config, bounds []int, spec string, poison bool) *benchRig {
	return &benchRig{
		pipe:   benchPipe(t, shape, bounds, spec, poison),
		corpus: NewCorpus(benchShape.Vocab, 1<<16, benchShape.Seed+7),
		rng:    tensor.NewRNG(benchShape.Seed),
	}
}

func (r *benchRig) batches() []Batch { return r.corpus.Batches(benchMicros, benchShape.Seq, r.rng) }

// parentRun is one entry of a file of runs captured once and never
// regenerated. testdata/losses_bench_shape.json holds what the executor
// reported at the commit before the blocked kernels and the arena (2d08acb)
// — naive triple loops, every matrix from the garbage collector.
// testdata/losses_gated_bench_shape.json holds the bench shape with SwiGLU
// blocks, captured at 03522dc, while the gated block was still a type of its
// own beside FFNBlock. Only the peak_act_bytes of both files were edited
// since, once, when StageCtx.SavedBytes stopped counting a later stage's input
// twice and started counting the head LayerNorm's statistics; no loss moved.
type parentRun struct {
	LossBits     []string `json:"loss_bits"`
	PeakActBytes []int64  `json:"peak_act_bytes"`
}

func parentRuns(t testing.TB, file string) map[string]parentRun {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var runs map[string]parentRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		t.Fatal(err)
	}
	return runs
}

// checkLosses holds losses, step by step, to the parent's bit patterns.
func checkLosses(t *testing.T, name string, got []float64, want []string) {
	t.Helper()
	for i, l := range got {
		if bits := fmt.Sprintf("%016x", math.Float64bits(l)); bits != want[i] {
			t.Fatalf("%s step %d: loss %v (bits %s), the parent commit reported bits %s", name, i, l, bits, want[i])
		}
	}
}

// TestLossesUnchangedFromParent is the proof that the kernels and the arena
// moved no bit — not merely that today's paths agree with each other: twelve
// steps under each save policy and of the single-stage baseline, against the
// file captured at the parent commit and never regenerated. The same run
// holds PeakActBytes to the file's values: the arena recycles buffers, it
// does not change what a context pins. The gated file holds the SwiGLU form
// of FFNBlock to the separate block it replaced.
func TestLossesUnchangedFromParent(t *testing.T) {
	gated := benchShape
	gated.GatedFFN = true
	for _, f := range []struct {
		file  string
		shape Config
	}{{"losses_bench_shape.json", benchShape}, {"losses_gated_bench_shape.json", gated}} {
		parent := parentRuns(t, f.file)
		for _, c := range []struct {
			name   string
			bounds []int
			spec   string
		}{
			{"saveall", benchBounds, "saveall"},
			{"savenone", benchBounds, "savenone"},
			{"alternate", benchBounds, "alternate"},
			{"baseline", []int{0, 10}, "saveall"},
		} {
			name := f.file + " " + c.name
			want, ok := parent[c.name]
			if !ok {
				t.Fatalf("no %q run in %s", c.name, f.file)
			}
			rig := newBenchRig(t, f.shape, c.bounds, c.spec, false)
			var losses []float64
			for range want.LossBits {
				l, err := rig.pipe.Step(rig.batches())
				if err != nil {
					t.Fatal(err)
				}
				losses = append(losses, l)
			}
			checkLosses(t, name, losses, want.LossBits)
			if fmt.Sprint(rig.pipe.PeakActBytes) != fmt.Sprint(want.PeakActBytes) {
				t.Errorf("%s: PeakActBytes %v, the parent commit reported %v", name, rig.pipe.PeakActBytes, want.PeakActBytes)
			}
		}
	}
}

// freeCtxs returns the stage contexts on the free lists of p's stages.
func freeCtxs(p *Pipeline) map[*StageCtx]bool {
	free := map[*StageCtx]bool{}
	for _, st := range p.Stages {
		for _, c := range st.arena.ctxs {
			free[c] = true
		}
	}
	return free
}

// TestArenaPoisonedReleaseLeavesLossesAlone: with every released buffer
// NaN-filled, every released context overwritten with a 1×1 NaN matrix in
// each field, and a double release of either a panic, a step still reports
// the parent's loss and PeakActBytes under all three policies — nothing reads
// a buffer it gave back, nothing relies on a taken buffer being zero, and a
// recycled context is reset field by field before it is used: a stale field
// would be read as the poison (a shape panic or a NaN loss) or counted in
// the live bytes. From the second step on every context is a recycled one —
// the free lists end each step holding the very contexts they held after
// the first.
func TestArenaPoisonedReleaseLeavesLossesAlone(t *testing.T) {
	parent := parentRuns(t, "losses_bench_shape.json")
	for _, spec := range benchSpecs {
		rig := newBenchRig(t, benchShape, benchBounds, spec, true)
		var losses []float64
		var first map[*StageCtx]bool
		for i := 0; i < 4; i++ {
			l, err := rig.pipe.Step(rig.batches())
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, l)
			free := freeCtxs(rig.pipe)
			if i == 0 {
				first = free
			} else if !maps.Equal(free, first) {
				t.Fatalf("%s step %d: the free lists hold %d contexts, not the %d recycled since the first step", spec, i, len(free), len(first))
			}
		}
		checkLosses(t, spec+" (poisoned)", losses, parent[spec].LossBits)
		if fmt.Sprint(rig.pipe.PeakActBytes) != fmt.Sprint(parent[spec].PeakActBytes) {
			t.Errorf("%s (poisoned): PeakActBytes %v, the parent commit reported %v", spec, rig.pipe.PeakActBytes, parent[spec].PeakActBytes)
		}
	}
}

// TestArenaSurvivesFailedIteration: an iteration killed mid-flight leaves
// buffers and contexts in flight — pinned contexts, boundary tensors in the
// channels, the failing op's scratch. They are dropped, never released, and
// so is the iteration state that held them: replaying the same batches after
// zeroing the gradients runs on fresh iteration state, reuses only buffers
// and contexts nobody holds — no context in flight at the failure ever
// reaches a free list again — and reports the fault-free losses bit for bit,
// poisoned arenas included.
func TestArenaSurvivesFailedIteration(t *testing.T) {
	parent := parentRuns(t, "losses_bench_shape.json")
	rig := newBenchRig(t, benchShape, benchBounds, "alternate", true)
	const failing = 2 // the step whose first try fails
	var losses []float64
	var failed *iterRun
	inFlight := map[*StageCtx]bool{}
	for i := 0; i < 5; i++ {
		batches := rig.batches()
		if i == failing {
			failed = rig.pipe.run // the state the failing try runs on
			if _, err := rig.pipe.Step(truncated(batches, 3)); err == nil {
				t.Fatal("a step with truncated targets succeeded")
			}
			zeroGrads(rig.pipe.Stages)
			for _, slots := range failed.ctxs {
				for _, c := range slots {
					if c != nil {
						inFlight[c] = true
					}
				}
			}
			if len(inFlight) == 0 {
				t.Fatal("no context was in flight when the iteration failed")
			}
		}
		l, err := rig.pipe.Step(batches)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, l)
		if i == failing && rig.pipe.run == failed {
			t.Fatal("the replay ran on the failed iteration's state")
		}
		for c := range freeCtxs(rig.pipe) {
			if inFlight[c] {
				t.Fatalf("step %d: a context in flight at the failure is back on a free list", i)
			}
		}
	}
	checkLosses(t, "replayed", losses, parent["alternate"].LossBits)
}

// TestStepAllocsBounded: a steady-state step takes its matrices and contexts
// from the arenas and its schedule, channels and goroutine bodies from the
// iteration state the last step left, so what it allocates is the caller's
// batch slice (one object, 384 bytes). Garbage per step is what the repo
// benchmark's peak RSS grows by per step, since no GC cycle runs in its timed
// window. Before the arenas a step allocated 8071 objects and 42.7 MB here;
// before the recycled contexts and iteration state, 231–263 objects and
// 16–17 KiB.
func TestStepAllocsBounded(t *testing.T) {
	const maxAllocs, maxBytes = 16, 1 << 10
	for _, spec := range benchSpecs {
		rig := newBenchRig(t, benchShape, benchBounds, spec, false)
		step := func() {
			if _, err := rig.pipe.Step(rig.batches()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, step)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before the counted ones.
		bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %.0f allocs, %d bytes per step", spec, allocs, bytes)
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocs per step, want <= %d", spec, allocs, maxAllocs)
		}
		if bytes > maxBytes {
			t.Errorf("%s: %d bytes per step, want <= %d", spec, bytes, maxBytes)
		}
	}
}

// pinnedBytes sums the bytes of the distinct matrices ctx (a *StageCtx or a
// BlockCtx) holds — every *tensor.Mat reachable from its fields, its block
// contexts' included — each matrix once, however many fields point at it.
func pinnedBytes(ctx any) int64 {
	mat := reflect.TypeFor[*tensor.Mat]()
	seen := map[uintptr]bool{}
	var n int64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			switch {
			case v.IsNil():
			case v.Type() != mat:
				walk(v.Elem())
			case !seen[v.Pointer()]:
				seen[v.Pointer()] = true
				n += int64(v.Elem().FieldByName("Data").Len()) * 8
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(ctx))
	return n
}

// TestStageSavedBytesCountsEachMatrixOnce holds StageCtx.SavedBytes, which
// feeds PeakActBytes, to the matrices a forward pass leaves pinned: on every
// stage of two splits of the bench shape (plain and gated) — one with blocks
// on every stage, one whose first stage is the embedding alone and whose last
// is the head alone — under save-all and save-none, head included, it must
// equal the bytes of the distinct matrices the context holds. A later stage's
// input is also its first block's (or its head's) input, and the head's
// LayerNorm statistics are pinned when the head keeps its LayerNorm.
func TestStageSavedBytesCountsEachMatrixOnce(t *testing.T) {
	gated := benchShape
	gated.GatedFFN = true
	batch := NewCorpus(benchShape.Vocab, 1<<10, 1).Batches(1, benchShape.Seq, tensor.NewRNG(1))[0]
	for _, shape := range []Config{benchShape, gated} {
		for _, bounds := range [][]int{benchBounds, {0, 1, 9, 10}} {
			for name, spec := range map[string]SaveSpec{"saveall": SaveAll(), "savenone": SaveNone()} {
				net, err := NewNet(shape)
				if err != nil {
					t.Fatal(err)
				}
				stages, err := Split(net, bounds, uniformSaves(bounds, spec))
				if err != nil {
					t.Fatal(err)
				}
				var x *tensor.Mat
				for s, st := range stages {
					var ctx *StageCtx
					x, ctx = st.Forward(batch.Tokens, x)
					if got, want := ctx.SavedBytes(), pinnedBytes(ctx); got != want {
						t.Errorf("gated=%v bounds %v %s stage %d: SavedBytes %d, the context pins %d",
							shape.GatedFFN, bounds, name, s, got, want)
					}
				}
			}
		}
	}
}
