package adapipe_test

import (
	"fmt"
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"adapipe"
	"adapipe/internal/core"
	"adapipe/internal/coststore"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/obs"
	"adapipe/internal/parallel"
	"adapipe/internal/partition"
	"adapipe/internal/recompute"
	"adapipe/internal/tensor"
	"adapipe/internal/train"
)

// The paper's tables and figures have one producer, `go run ./cmd/experiments
// -run ...` (it regenerates EXPERIMENTS.md), and the internal/experiments
// tests check their shapes; nothing here wraps them. What stays is the cost of
// the search itself and of its parts.

func planner(b *testing.B, cfg model.Config, seqLen, globalBatch int, opts core.Options) *core.Planner {
	b.Helper()
	pl, err := core.NewPlanner(cfg, hardware.ClusterA(),
		parallel.Strategy{TP: 8, PP: 8, DP: 1},
		parallel.Config{GlobalBatch: globalBatch, MicroBatch: 1, SeqLen: seqLen}, opts)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

func gptPlanner(b *testing.B, opts core.Options) *core.Planner {
	b.Helper()
	return planner(b, model.GPT3_175B(), 16384, 32, opts)
}

// coldSearch is the body of the search and ablation-timing rows: one cold
// GPT-3 search per iteration, planner construction included.
func coldSearch(b *testing.B, opts core.Options) {
	for i := 0; i < b.N; i++ {
		if _, err := gptPlanner(b, opts).Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchAdaPipe times the full two-level DP for GPT-3 (the paper
// reports "only seconds" for the whole search, §5.3).
func BenchmarkSearchAdaPipe(b *testing.B) { coldSearch(b, core.DefaultOptions()) }

// The planner rows of the developer loop (DESIGN §16):
//
//	go test -run '^$' -bench 'PlanSearch|Replan|SweepGrid' -cpu 1,2 .
//
// They are reported, not gated; the gate on each is a BENCHMARK.json metric.

// planSearchShapes are BenchmarkPlanSearch's rows: the paper's GPT-3 shape,
// and the Llama-2 70B shape that is the heaviest family of the repo
// benchmark's plan_cold mix and sets its op_p95_ms. cells is the cold
// search's Stats.PartitionCells, which repeats exactly; uncut, Algorithm 1's
// scans evaluate 82305 and 69565.
var planSearchShapes = []struct {
	name   string
	cfg    model.Config
	seqLen int
	cells  int
}{{"gpt3", model.GPT3_175B(), 16384, 32221}, {"llama2", model.Llama2_70B(), 20032, 19310}}

// BenchmarkPlanSearch is the cold search, planner construction included.
func BenchmarkPlanSearch(b *testing.B) {
	opts := core.DefaultOptions()
	for _, m := range planSearchShapes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := planner(b, m.cfg, m.seqLen, 32, opts).Plan(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanSearchPartitionCells pins the partition-DP cells of
// BenchmarkPlanSearch's cold searches, so a regressed scan cut fails here
// rather than only slowing the benchmark down.
func TestPlanSearchPartitionCells(t *testing.T) {
	for _, m := range planSearchShapes {
		pl, err := core.NewPlanner(m.cfg, hardware.ClusterA(), parallel.Strategy{TP: 8, PP: 8, DP: 1},
			parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: m.seqLen}, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Plan(); err != nil {
			t.Fatal(err)
		}
		if got := pl.Stats.PartitionCells; got != m.cells {
			t.Errorf("%s: cold search evaluated %d partition cells, want %d", m.name, got, m.cells)
		}
	}
}

// BenchmarkSweepGrid times one point of a same-family sweep — the GPT-3 shape
// over global batch 32, 64, 96, the /v1/sweep sweet spot. cold: no cost store,
// every point pays its own knapsack work. warm: the points share one store
// prewarmed (outside the timer) by a single point of the family, the price
// every sweep point after the first pays; cold/warm is the store's measured
// amortization.
func BenchmarkSweepGrid(b *testing.B) {
	opts := core.DefaultOptions()
	grid := []int{32, 64, 96}
	point := func(b *testing.B, globalBatch int, store *coststore.Store) {
		pl := planner(b, model.GPT3_175B(), 16384, globalBatch, opts)
		if store != nil {
			if err := pl.SetCostSource(store); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := pl.Plan(); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"cold", "warm"} {
		var store *coststore.Store
		if name == "warm" {
			store = coststore.New(0)
			point(b, grid[0], store)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				point(b, grid[i%len(grid)], store)
			}
		})
	}
}

// BenchmarkReplanWithScale times one cold straggler-driven replanning round —
// reprice the incumbent, re-search under scaled costs from scratch, simulate
// both — with the planner and incumbent plan built outside the timer.
// ResetIncremental inside the loop keeps the row honest now that warm
// planners replan incrementally by default; BenchmarkReplanIncremental is
// the warm counterpart.
func BenchmarkReplanWithScale(b *testing.B) {
	b.ReportAllocs()
	pl := gptPlanner(b, core.DefaultOptions())
	plan, err := pl.Plan()
	if err != nil {
		b.Fatal(err)
	}
	scale := []float64{1, 1, 1.25, 1, 1, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.ResetIncremental()
		if _, err := pl.ReplanWithScale(plan, scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanIncremental times the warm-started replanning fast path:
// the planner keeps its partition-DP memo and iso-cache from the previous
// search, so each round only re-solves the DP levels whose stage scale
// changed. The two scale vectors alternate a different value at stage 2 so
// every iteration really invalidates and recomputes levels 0..2 rather than
// reassembling a stale=-1 no-op.
func BenchmarkReplanIncremental(b *testing.B) {
	b.ReportAllocs()
	pl := gptPlanner(b, core.DefaultOptions())
	plan, err := pl.Plan()
	if err != nil {
		b.Fatal(err)
	}
	scales := [2][]float64{
		{1, 1, 1.25, 1, 1, 1, 1, 1},
		{1, 1, 1.35, 1, 1, 1, 1, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := pl.ReplanWithScale(plan, scales[i%2])
		if err != nil {
			b.Fatal(err)
		}
		plan = r.New
	}
}

// BenchmarkAblationIsomorphism measures the search without the §5.3
// isomorphic-range cache: every (s,i,j) range solves its own knapsack.
func BenchmarkAblationIsomorphism(b *testing.B) {
	opts := core.DefaultOptions()
	opts.DisableIsomorphism = true
	coldSearch(b, opts)
}

// BenchmarkAblationGCD measures the search without the §5.3 GCD capacity
// reduction (the knapsack runs at raw quantum granularity).
func BenchmarkAblationGCD(b *testing.B) {
	opts := core.DefaultOptions()
	opts.DisableGCD = true
	coldSearch(b, opts)
}

// BenchmarkAblationFineQuantum measures the search at a 16x finer knapsack
// quantum (DP accuracy/speed trade-off called out in DESIGN.md).
func BenchmarkAblationFineQuantum(b *testing.B) {
	opts := core.DefaultOptions()
	opts.MaxDPStates = 65536
	coldSearch(b, opts)
}

// recomputeSetRowLevel is internal/recompute's test hook (setRowLevel). The
// hook is unexported so that no caller outside the tests can pick a path;
// linkname is how this package's benchmarks reach it. It selects the
// knapsack's row-pass path by name — "avx512", "avx2" or "generic", or the
// widest narrower one where the CPU lacks it — and returns the previous
// path's name.
//
//go:linkname recomputeSetRowLevel adapipe/internal/recompute.setRowLevel
func recomputeSetRowLevel(name string) (was string)

// rowPaths are the knapsack's three row-pass paths, widest first; the tensor
// kernels have paths of the same names.
var rowPaths = []string{"avx512", "avx2", "generic"}

// hasPath reports whether this CPU runs the named path of a hook's package
// (recomputeSetRowLevel or tensorSetLevel).
func hasPath(hook func(name string) (was string), name string) bool {
	was := hook(name)
	return hook(was) == name
}

// BenchmarkKnapsack times one stage-level recomputation DP at realistic
// sizes (a 24-layer GPT-3 stage) on a reused solver, as the planner runs it,
// once per row-pass path (a path the CPU lacks is skipped). ns/cell is per
// table cell (pseudo-items × capacity states), the unit the rows have always
// used; live-share is the share of those cells the row passes compute, the
// rest being the saturated tails they skip:
// go test -run '^$' -bench Knapsack -cpu 1 .
func BenchmarkKnapsack(b *testing.B) {
	groups := []recompute.Group{
		{Key: "Attention/LayerNorm", FwdTime: 1e-4, Bytes: 50 << 20, Count: 12},
		{Key: "Attention/QProj", FwdTime: 3e-3, Bytes: 50 << 20, Count: 12},
		{Key: "Attention/KProj", FwdTime: 3e-3, Bytes: 50 << 20, Count: 12},
		{Key: "Attention/VProj", FwdTime: 3e-3, Bytes: 50 << 20, Count: 12},
		{Key: "Attention/Core", FwdTime: 9e-3, Bytes: 51 << 20, Count: 12},
		{Key: "Attention/Out", FwdTime: 3e-3, Bytes: 50 << 20, Count: 12, AlwaysSaved: true},
		{Key: "FFN/LayerNorm", FwdTime: 1e-4, Bytes: 50 << 20, Count: 12},
		{Key: "FFN/Up", FwdTime: 1.2e-2, Bytes: 200 << 20, Count: 12},
		{Key: "FFN/Act", FwdTime: 2e-4, Bytes: 200 << 20, Count: 12},
		{Key: "FFN/Down", FwdTime: 1.2e-2, Bytes: 50 << 20, Count: 12, AlwaysSaved: true},
	}
	for _, path := range rowPaths {
		b.Run(path, func(b *testing.B) {
			if !hasPath(recomputeSetRowLevel, path) {
				b.Skipf("no %s on this CPU", path)
			}
			defer recomputeSetRowLevel(recomputeSetRowLevel(path))
			sv := recompute.NewSolver()
			capacities := []int64{8 << 30}
			var out [1]recompute.Solution
			var table, live int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				table, live = sv.OptimizeMany(groups, capacities, recompute.Options{Quantum: 1 << 20}, out[:])
				if !out[0].Feasible {
					b.Fatal("infeasible")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(table), "ns/cell")
			b.ReportMetric(float64(live)/float64(table), "live-share")
		})
	}
}

// BenchmarkPartitionDP times Algorithm 1 alone over the GPT-3 layer
// sequence with a synthetic cost function (no knapsack inside), with its
// scans cut by the cost itself as the lower bound and uncut, and reports the
// cost evaluations per solve.
func BenchmarkPartitionDP(b *testing.B) {
	const L, p, n = 194, 8, 32
	cost := func(s, i, j int) (float64, float64, bool) {
		layers := float64(j - i + 1)
		return layers * 0.03, layers * 0.08, true
	}
	for _, row := range []struct {
		name  string
		bound partition.BoundFn
	}{
		{"cut", func(s, i, j int) (float64, float64) { f, b, _ := cost(s, i, j); return f, b }},
		{"uncut", nil},
	} {
		b.Run(row.name, func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				sol, err := partition.SolveBounded(L, p, n, cost, row.bound, nil, p-1)
				if err != nil {
					b.Fatal(err)
				}
				cells = sol.DPCells
			}
			b.ReportMetric(float64(cells), "cells/op")
		})
	}
}

// simulateGPT3 times one simulated iteration of the GPT-3 AdaPipe plan under
// the given pipeline mechanism.
func simulateGPT3(b *testing.B, kind adapipe.ScheduleKind) {
	plan, err := adapipe.PlanAdaPipe(adapipe.GPT3(), adapipe.ClusterA(),
		adapipe.Strategy{TP: 8, PP: 8, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapipe.Simulate(plan, kind, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate1F1B times one simulated GPT-3 iteration.
func BenchmarkSimulate1F1B(b *testing.B) { simulateGPT3(b, adapipe.Sched1F1B) }

// BenchmarkSimulateChimera times the greedy bidirectional schedule.
func BenchmarkSimulateChimera(b *testing.B) { simulateGPT3(b, adapipe.SchedChimera) }

// The executor rows (DESIGN §16): the train_1f1b workload of bench/train.go
// rebuilt here — same net, bounds, micro-batch count, learning rate and save
// specs — so a step timed by `go test -bench` is the step the repo benchmark
// gates through throughput_ops_s.
var (
	stepNet    = train.Config{Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 32, Seed: 1}
	stepBounds = []int{0, 4, 7, 10}
	stepSpecs  = []string{"saveall", "savenone", "alternate"}
)

const stepMicros = 8

// benchTrainStep builds each spec's pipeline once, warms it for three steps
// (the buffer arena fills on the first), and times steady-state steps. The
// three specs see the same seeds, so they must report the same losses.
func benchTrainStep(b *testing.B, record bool) {
	var ref []float64
	for _, spec := range stepSpecs {
		b.Run(spec, func(b *testing.B) {
			net, err := train.NewNet(stepNet)
			if err != nil {
				b.Fatal(err)
			}
			stages, err := train.Split(net, stepBounds, nil)
			if err != nil {
				b.Fatal(err)
			}
			block := 0
			for _, st := range stages {
				for i := range st.Saves {
					if spec == "saveall" || spec == "alternate" && block%2 == 0 {
						st.Saves[i] = train.SaveAll()
					} else {
						st.Saves[i] = train.SaveNone()
					}
					block++
				}
			}
			pipe := train.NewPipeline(stages, 1e-3)
			if record {
				pipe.Recorder = obs.NewRecorder()
			}
			corpus := train.NewCorpus(stepNet.Vocab, 1<<16, stepNet.Seed+7)
			rng := tensor.NewRNG(stepNet.Seed)
			var losses []float64
			step := func() {
				loss, err := pipe.Step(corpus.Batches(stepMicros, stepNet.Seq, rng))
				if err != nil {
					b.Fatal(err)
				}
				losses = append(losses, loss)
			}
			for i := 0; i < 3; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if record && pipe.Recorder.Trace() == nil {
				b.Fatal("no trace recorded")
			}
			if ref == nil {
				ref = losses
			}
			for i := 0; i < len(losses) && i < len(ref); i++ {
				if math.Float64bits(losses[i]) != math.Float64bits(ref[i]) {
					b.Fatalf("step %d: loss %v under %s, %v under %s", i, losses[i], spec, ref[i], stepSpecs[0])
				}
			}
		})
	}
}

// BenchmarkTrainStep times one steady-state 1F1B step on the nil-recorder
// path, per save spec.
func BenchmarkTrainStep(b *testing.B) { benchTrainStep(b, false) }

// BenchmarkTrainStepRecorded is BenchmarkTrainStep with the op recorder
// attached. Compare the pair (same run, allocs/op included) to see the
// recording overhead: the nil-recorder path must not allocate or read clocks
// beyond the baseline.
func BenchmarkTrainStepRecorded(b *testing.B) { benchTrainStep(b, true) }

// tensorSetLevel is internal/tensor's test hook (setLevel), reached the way
// recomputeSetRowLevel is: it selects the kernel path of the products and
// the element-wise operations by name — "avx512", "avx2" or "generic", or the
// widest narrower one where the CPU lacks it — and returns the previous
// path's name.
//
//go:linkname tensorSetLevel adapipe/internal/tensor.setLevel
func tensorSetLevel(name string) (was string)

// benchTensorPaths runs bench once per named kernel path, skipping a path
// the CPU lacks.
func benchTensorPaths(b *testing.B, name string, paths []string, bench func(b *testing.B)) {
	for _, path := range paths {
		b.Run(name+"/"+path, func(b *testing.B) {
			if !hasPath(tensorSetLevel, path) {
				b.Skipf("no %s on this CPU", path)
			}
			defer tensorSetLevel(tensorSetLevel(path))
			bench(b)
		})
	}
}

// BenchmarkMatMul times the three product kernels on the five shapes
// bench/train.go's tensorProbe uses (m×k×n: an m×n result over inner k) and
// reports each as GFLOP/s; the ledger row tensor.matmul_gflops is their mix.
// Each shape has a row per kernel path — avx512 (4×16 tiles), avx2 (4×8
// tiles), a path the CPU lacks skipped, and generic (the portable loops) — so
// the kernel gain is one command: go test -run '^$' -bench MatMul .
func BenchmarkMatMul(b *testing.B) {
	s, dm, f := stepNet.Seq, stepNet.Dim, stepNet.FFN
	rng := tensor.NewRNG(1)
	x := tensor.RandNorm(rng, s, dm, 1)
	wUp := tensor.RandNorm(rng, dm, f, 1)
	h := tensor.RandNorm(rng, s, f, 1)
	wq := tensor.RandNorm(rng, dm, dm, 1)
	for _, c := range []struct {
		name    string
		into    func(dst, a, b *tensor.Mat) *tensor.Mat
		a, b    *tensor.Mat
		m, k, n int
	}{
		{"MatMul", tensor.MatMulInto, x, wUp, s, dm, f},   // x·W_up
		{"MatMul", tensor.MatMulInto, x, wq, s, dm, dm},   // projections
		{"MatMulT", tensor.MatMulTInto, x, x, s, dm, s},   // q·kᵀ
		{"MatMulT", tensor.MatMulTInto, h, wUp, s, f, dm}, // dy·Wᵀ
		{"TMatMul", tensor.TMatMulInto, x, h, dm, s, f},   // xᵀ·dy
	} {
		benchTensorPaths(b, fmt.Sprintf("%s/%dx%dx%d", c.name, c.m, c.k, c.n), rowPaths, func(b *testing.B) {
			dst := tensor.New(c.m, c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.into(dst, c.a, c.b)
			}
			b.ReportMetric(2*float64(c.m*c.k*c.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkElementwise times the element-wise operations of a train_1f1b
// step on its shapes — Adam over a 64×64 weight, LayerNorm forward and
// backward over a 32×64 activation, the GELU pair over a 32×128 one, the row
// softmax over tensorProbe's 32×32 scores (tensor.softmax_us) and the causal
// softmax attention runs on them — and reports ns per element. Each has an
// avx2 row (the AVX2 kernels, skipped on a CPU without them; there is no
// AVX-512 element-wise kernel, so avx512 would time the same code) and a
// generic row (the portable loops): go test -run '^$' -bench Elementwise -cpu 1 .
func BenchmarkElementwise(b *testing.B) {
	s, dm, f := stepNet.Seq, stepNet.Dim, stepNet.FFN
	rng := tensor.NewRNG(1)
	mat := func(r, c int, std float64) *tensor.Mat { return tensor.RandNorm(rng, r, c, std) }
	w, g0, m, v := mat(dm, dm, 0.02), mat(dm, dm, 1), mat(dm, dm, 0.1), mat(dm, dm, 0.1)
	for i := range v.Data {
		v.Data[i] = math.Abs(v.Data[i])
	}
	g := g0.Clone()
	adam := &tensor.AdamStep{Inv: 1.0 / stepMicros, Beta1: 0.9, Beta2: 0.999, C1: 0.1, C2: 0.001, LR: 1e-3, Eps: 1e-8}
	x, dy, y, xhat, dx := mat(s, dm, 1), mat(s, dm, 1), mat(s, dm, 1), mat(s, dm, 1), mat(s, dm, 1)
	gain, bias, gg, gb, rstd := mat(1, dm, 1).Data, mat(1, dm, 1).Data, mat(1, dm, 1).Data, mat(1, dm, 1).Data, mat(1, s, 1).Data
	up, dUp, act := mat(s, f, 0.2), mat(s, f, 1), mat(s, f, 1)
	scores, probs := mat(s, s, 1), mat(s, s, 1)
	for _, c := range []struct {
		name string
		n    int
		run  func(b *testing.B)
	}{
		{"Adam/64x64", dm * dm, func(b *testing.B) {
			b.StopTimer() // refill the gradients Adam zeroes
			copy(g.Data, g0.Data)
			b.StartTimer()
			tensor.AdamUpdate(w.Data, g.Data, m.Data, v.Data, adam)
		}},
		{"LayerNorm/32x64", s * dm, func(*testing.B) { tensor.LayerNormInto(y, xhat, rstd, x, gain, bias, 1e-5) }},
		{"LayerNormBackward/32x64", s * dm, func(*testing.B) { tensor.LayerNormBackwardInto(dx, dy, xhat, rstd, gain, gg, gb) }},
		{"GELU/32x128", s * f, func(*testing.B) { tensor.GELUInto(act, up) }},
		{"GELUBackward/32x128", s * f, func(*testing.B) { tensor.GELUBackwardInto(act, up, dUp) }},
		{"Softmax/32x32", s * s, func(*testing.B) { tensor.SoftmaxRowsInto(probs, scores) }},
		{"CausalSoftmax/32x32", s * s, func(*testing.B) { tensor.CausalSoftmaxInto(probs, scores) }},
	} {
		benchTensorPaths(b, c.name, []string{"avx2", "generic"}, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/element")
		})
	}
}

// BenchmarkAblationExactPartition times the Pareto-frontier partition DP on
// the full GPT-3 search (vs BenchmarkSearchAdaPipe's Algorithm 1).
func BenchmarkAblationExactPartition(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Partition = core.PartitionExact
	coldSearch(b, opts)
}

// BenchmarkAblationLayerGranularity times the whole-layer (vPipe-style)
// recomputation search.
func BenchmarkAblationLayerGranularity(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Recompute = core.RecomputeLayerLevel
	opts.Partition = core.PartitionEven
	coldSearch(b, opts)
}
