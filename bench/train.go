package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"adapipe/internal/obs"
	"adapipe/internal/schedule"
	"adapipe/internal/tensor"
	"adapipe/internal/train"
)

// The train_1f1b workload: a tiny GPT split into three stages, sized so that
// one 1F1B step takes 50–150 ms on the reference box and a 20 s run collects
// the 200 steps a p95 needs.
var (
	trainNet     = train.Config{Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 32}
	trainBounds  = []int{0, 4, 7, 10} // over embedding + 8 blocks + head
	trainSpecs   = []string{"saveall", "savenone", "alternate"}
	trainMicros  = 8
	trainLR      = 1e-3
	trainRotate  = 10 // steps on one save spec before moving to the next
	trainBaseLen = 6  // steps of the single-stage baseline run in set-up
)

// trainSaves builds the per-stage, per-block save specs of one named policy.
func trainSaves(spec string, stages []*train.Stage) {
	block := 0
	for _, st := range stages {
		for b := range st.Saves {
			switch {
			case spec == "saveall", spec == "alternate" && block%2 == 0:
				st.Saves[b] = train.SaveAll()
			default:
				st.Saves[b] = train.SaveNone()
			}
			block++
		}
	}
}

// trainRig is one pipeline plus the batch stream it trains on. Every rig of a
// run is built from the same seeds, so step k sees the same parameters and
// the same batches on each — and, because recomputation and partitioning
// leave the arithmetic alone, must report the same loss to the last bit.
type trainRig struct {
	pipe   *train.Pipeline
	corpus *train.Corpus
	rng    *tensor.RNG
	losses []float64
}

func newTrainRig(seed uint64, bounds []int, spec string) (*trainRig, error) {
	cfg := trainNet
	cfg.Seed = seed
	net, err := train.NewNet(cfg)
	if err != nil {
		return nil, err
	}
	stages, err := train.Split(net, bounds, nil)
	if err != nil {
		return nil, err
	}
	trainSaves(spec, stages)
	return &trainRig{
		pipe:   train.NewPipeline(stages, trainLR),
		corpus: train.NewCorpus(cfg.Vocab, 1<<16, seed+7),
		rng:    tensor.NewRNG(seed),
	}, nil
}

func (r *trainRig) step() (time.Duration, error) {
	batches := r.corpus.Batches(trainMicros, trainNet.Seq, r.rng)
	t0 := time.Now()
	loss, err := r.pipe.Step(batches)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	r.losses = append(r.losses, loss)
	return d, nil
}

// trainSetup builds the three rigs and runs the plain single-stage baseline
// (same seeds, Bounds [0, L]) whose losses the pipelined steps must match.
func trainSetup(seed uint64) (rigs []*trainRig, baseline []float64, err error) {
	for _, spec := range trainSpecs {
		rig, err := newTrainRig(seed, trainBounds, spec)
		if err != nil {
			return nil, nil, err
		}
		rigs = append(rigs, rig)
	}
	base, err := newTrainRig(seed, []int{0, trainBounds[len(trainBounds)-1]}, "saveall")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < trainBaseLen; i++ {
		if _, err := base.step(); err != nil {
			return nil, nil, fmt.Errorf("baseline step %d: %w", i, err)
		}
	}
	return rigs, base.losses, nil
}

// trainEndToEnd sets the workload up (setup_s is the median of the
// repetitions), runs it untraced for the run length, and reports the
// harness's own peak RSS and CPU seconds over the timed window.
func (h *harness) trainEndToEnd(ctx context.Context) (run *trainRun, setupS []float64, peakRSSMiB, cpuS float64, err error) {
	var rigs []*trainRig
	var base []float64
	for rep := 0; rep < h.setupReps(); rep++ {
		t0 := time.Now()
		if rigs, base, err = trainSetup(h.seed); err != nil {
			return nil, nil, 0, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// The harness is the process under test here: give back what earlier
	// workloads of a full run left on the heap and restart the kernel's
	// peak-RSS mark (clear_refs 5), so the peak is this workload's own.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the peak then spans the whole process
	_, cpu0, err := procStat(0)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	run = runTrain(ctx, rigs, base, time.Duration(h.seconds*float64(time.Second)), false)
	rss, cpu1, err := procStat(0)
	return run, setupS, rss, cpu1 - cpu0, err
}

// trainRun is what a timed run of the rigs observed.
type trainRun struct {
	wall      time.Duration
	attempted int
	failed    int
	errs      []string
	stepMS    []float64
	bySpecMS  [][]float64
	traces    [][]*obs.Trace
	mallocs   uint64
	peakAct   int64
}

// runTrain steps the rigs for d, moving to the next rig every trainRotate
// steps, and checks every loss against the other rigs' loss for the same step
// and against the baseline. With record set, the public op recorder is
// attached and each step's trace kept.
func runTrain(ctx context.Context, rigs []*trainRig, baseline []float64, d time.Duration, record bool) *trainRun {
	run := &trainRun{bySpecMS: make([][]float64, len(rigs)), traces: make([][]*obs.Trace, len(rigs))}
	for _, rig := range rigs {
		rig.pipe.Recorder = nil
		if record {
			rig.pipe.Recorder = obs.NewRecorder()
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for n := 0; ctx.Err() == nil && time.Since(start) < d; n++ {
		k := (n / trainRotate) % len(rigs)
		rig := rigs[k]
		step := len(rig.losses)
		run.attempted++
		took, err := rig.step()
		if err != nil {
			run.fail("%s step %d: %v", trainSpecs[k], step, err)
			continue
		}
		ms := float64(took) / float64(time.Millisecond)
		run.stepMS = append(run.stepMS, ms)
		run.bySpecMS[k] = append(run.bySpecMS[k], ms)
		if record {
			run.traces[k] = append(run.traces[k], rig.pipe.Recorder.Trace())
		}
		loss := rig.losses[step]
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			run.fail("%s step %d: loss %v", trainSpecs[k], step, loss)
		}
		if step < len(baseline) && math.Float64bits(loss) != math.Float64bits(baseline[step]) {
			run.fail("%s step %d: loss %v differs from the single-stage baseline %v", trainSpecs[k], step, loss, baseline[step])
		}
		for j, other := range rigs {
			if j != k && step < len(other.losses) && math.Float64bits(other.losses[step]) != math.Float64bits(loss) {
				run.fail("step %d: loss %v under %s differs from %v under %s", step, loss, trainSpecs[k], other.losses[step], trainSpecs[j])
			}
		}
	}
	run.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	for _, rig := range rigs {
		for _, b := range rig.pipe.PeakActBytes {
			run.peakAct = max(run.peakAct, b)
		}
	}
	return run
}

func (r *trainRun) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// trainShares splits the recorded stage time of all steps into forward,
// backward, recomputation and stall. The recorder times a backward op as a
// whole, so recomputation is what a spec's backward time exceeds SaveAll's by,
// per step.
func trainShares(run *trainRun) (fwd, bwd, recompute, stall float64) {
	var fwdT, stallT float64
	bwdPerStep := make([]float64, len(run.traces))
	steps := make([]float64, len(run.traces))
	for k, traces := range run.traces {
		for _, tr := range traces {
			for _, sp := range tr.Spans {
				if sp.Op.Kind == schedule.Forward {
					fwdT += sp.End - sp.Start
				} else {
					bwdPerStep[k] += sp.End - sp.Start
				}
				stallT += sp.Wait
			}
			steps[k]++
		}
	}
	var bwdT, recT float64
	for k := range bwdPerStep {
		if steps[k] == 0 {
			continue
		}
		bwdT += bwdPerStep[k]
		bwdPerStep[k] /= steps[k]
	}
	for k := range bwdPerStep {
		if k > 0 && steps[k] > 0 && steps[0] > 0 && bwdPerStep[k] > bwdPerStep[0] {
			recT += (bwdPerStep[k] - bwdPerStep[0]) * steps[k]
		}
	}
	total := fwdT + bwdT + stallT
	return ratio(fwdT, total), ratio(bwdT-recT, total), ratio(recT, total), ratio(stallT, total)
}

// tensorProbe times the tensor layer on the shapes the net uses.
func tensorProbe(budget time.Duration) (matmulGFLOPS, softmaxUS float64) {
	rng := tensor.NewRNG(1)
	s, dm, f := trainNet.Seq, trainNet.Dim, trainNet.FFN
	x := tensor.RandNorm(rng, s, dm, 1)
	wUp := tensor.RandNorm(rng, dm, f, 1)
	h := tensor.RandNorm(rng, s, f, 1)
	wq := tensor.RandNorm(rng, dm, dm, 1)
	scores := tensor.RandNorm(rng, s, s, 1)
	var flops float64
	var matmul time.Duration
	var softmax []float64
	for start := time.Now(); time.Since(start) < budget; {
		t0 := time.Now()
		_ = tensor.MatMul(x, wUp)  // x·W: s×dm · dm×f
		_ = tensor.MatMul(x, wq)   // projections: s×dm · dm×dm
		_ = tensor.MatMulT(x, x)   // q·kᵀ: s×dm · (s×dm)ᵀ
		_ = tensor.MatMulT(h, wUp) // dy·Wᵀ: s×f · (dm×f)ᵀ
		_ = tensor.TMatMul(x, h)   // xᵀ·dy: (s×dm)ᵀ · s×f
		matmul += time.Since(t0)
		flops += 2 * float64(s*dm*f+s*dm*dm+s*dm*s+s*f*dm+dm*s*f)
		t1 := time.Now()
		_ = tensor.SoftmaxRows(scores)
		softmax = append(softmax, float64(time.Since(t1))/float64(time.Microsecond))
	}
	return ratio(flops, matmul.Seconds()) / 1e9, median(softmax)
}
