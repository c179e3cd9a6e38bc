package train

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adapipe/internal/obs"
	"adapipe/internal/schedule"
	"adapipe/internal/tensor"
)

// Trace is a measured pipeline iteration: per-op wall-clock spans, per-stage
// channel-wait (stall) time and live-activation curves, structurally
// compatible with sim.Result via Trace.Result so the trace-package renderers
// work on measured runs.
type Trace = obs.Trace

// Pipeline executes synchronous 1F1B pipeline-parallel training: one
// goroutine per stage, activations flowing forward and gradients backward
// over channels, with per-stage gradient accumulation and a per-stage Adam
// optimizer — the execution engine of §6 in miniature.
type Pipeline struct {
	// Stages are the partitioned model stages.
	Stages []*Stage
	opts   []*Adam
	// PeakActBytes records, per stage, the high-water mark of live
	// activation contexts across all steps — the engine-level counterpart
	// of the memory model's (p−s)·Mem(R) term.
	PeakActBytes []int64
	// Recorder, when non-nil, captures per-op wall-clock spans, channel-wait
	// stall time and live-byte curves for the *current* iteration (each
	// Accumulate resets it). Nil — the default — keeps the hot path free of
	// clock reads and recording allocations.
	Recorder *obs.Recorder
	// sched is the 1F1B schedule of the last (stages, micro-batches) pair;
	// it is only ever read.
	sched *schedule.Schedule
	// run is the iteration state the last successful Accumulate left behind
	// for the next one; a failed iteration drops its own.
	run *iterRun
}

// NewPipeline wraps stages with per-stage Adam optimizers.
func NewPipeline(stages []*Stage, lr float64) *Pipeline {
	p := &Pipeline{Stages: stages, PeakActBytes: make([]int64, len(stages))}
	for _, s := range stages {
		p.opts = append(p.opts, NewAdam(s.Params(), lr))
	}
	return p
}

type flowMsg struct {
	micro int
	m     *tensor.Mat
}

// Step runs one training iteration over the given micro-batches under 1F1B
// scheduling and applies the optimizer. It returns the mean loss across
// micro-batches.
func (p *Pipeline) Step(batches []Batch) (float64, error) {
	loss, err := p.Accumulate(batches)
	if err != nil {
		return 0, err
	}
	p.ApplyOptimizer(float64(len(batches)))
	return loss, nil
}

// ApplyOptimizer applies one optimizer step from the accumulated gradients,
// scaled by 1/gradScale, then zeroes them. Data-parallel training sums
// replica gradients first and passes the global micro-batch count.
func (p *Pipeline) ApplyOptimizer(gradScale float64) {
	for _, opt := range p.opts {
		opt.Step(gradScale)
	}
}

// Accumulate runs the forward and backward passes of one iteration under
// 1F1B scheduling, accumulating gradients without applying the optimizer.
// It returns the mean loss across micro-batches.
//
// Accumulate is cancellable: every channel operation in the stage goroutines
// selects on a per-iteration done channel, which a stage that panics closes,
// so its peers unblock and exit instead of deadlocking wg.Wait on a
// counterpart that will never send. A stage panic is the one way an
// iteration is cancelled: the 1F1B schedule it runs cannot deadlock. On a
// failure the accumulated gradients are partial garbage; Run, RunContext and
// RunDataParallel end at the first failed step.
//
// A successful iteration leaves its state — channels drained, done channel
// open, every context slot empty — for the next call on the same schedule,
// so a steady-state step allocates nothing here. A failed one drops it, with
// the contexts and buffers still in flight.
func (p *Pipeline) Accumulate(batches []Batch) (float64, error) {
	n := len(batches)
	np := len(p.Stages)
	if n < np {
		return 0, fmt.Errorf("train: %d micro-batches cannot fill a %d-stage pipeline", n, np)
	}
	if p.sched == nil || p.sched.Stages != np || p.sched.Micros != n {
		sched, err := schedule.OneFOneB(np, n)
		if err != nil {
			return 0, err
		}
		p.sched = sched
	}
	run := p.run
	p.run = nil
	if run == nil || run.sched != p.sched {
		run = newIterRun(p)
	}
	if p.Recorder != nil {
		p.Recorder.Reset(np)
	}
	run.batches = batches

	for _, stage := range run.stages {
		run.wg.Add(1)
		go stage()
	}

	// The done-channel selects make every stage goroutine exit promptly once
	// canceled, and returning only after wg.Wait means none outlives the
	// call to race on losses/PeakActBytes.
	run.wg.Wait()
	if err := firstErr(run.errs); err != nil {
		return 0, err
	}
	var mean float64
	for _, l := range run.losses {
		mean += l
	}
	run.batches = nil
	p.run = run
	return mean / float64(n), nil
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// iterRun is the shared state of an Accumulate call: the schedule, the
// inter-stage channels, the in-flight contexts, and the cancellation
// plumbing. It outlives the call only if the iteration succeeded.
type iterRun struct {
	pipe    *Pipeline
	sched   *schedule.Schedule
	batches []Batch
	fwd     []chan flowMsg
	bwd     []chan flowMsg
	// ctxs[s][m] holds stage s's context of micro-batch m from its forward
	// to its backward op; dlogits[m] the last stage's loss gradient between
	// the same two ops.
	ctxs    [][]*StageCtx
	dlogits []*tensor.Mat
	losses  []float64
	errs    []error
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	// stages are the stage goroutines' bodies, built once so that starting
	// them allocates nothing.
	stages []func()
}

// newIterRun builds the iteration state for p's current schedule.
func newIterRun(p *Pipeline) *iterRun {
	np, n := p.sched.Stages, p.sched.Micros
	r := &iterRun{
		pipe:    p,
		sched:   p.sched,
		fwd:     make([]chan flowMsg, np-1),
		bwd:     make([]chan flowMsg, np-1),
		ctxs:    make([][]*StageCtx, np),
		dlogits: make([]*tensor.Mat, n),
		losses:  make([]float64, n),
		errs:    make([]error, np),
		done:    make(chan struct{}),
		stages:  make([]func(), np),
	}
	for i := range r.fwd {
		r.fwd[i] = make(chan flowMsg, n)
		r.bwd[i] = make(chan flowMsg, n)
	}
	for s := range r.stages {
		r.ctxs[s] = make([]*StageCtx, n)
		r.stages[s] = func() {
			defer r.wg.Done()
			r.stage(s)
		}
	}
	return r
}

// cancel unblocks every stage goroutine; idempotent.
func (r *iterRun) cancel() {
	r.once.Do(func() { close(r.done) })
}

// recv receives from ch unless the iteration is canceled first.
func (r *iterRun) recv(ch chan flowMsg) (flowMsg, bool) {
	select {
	case msg := <-ch:
		return msg, true
	case <-r.done:
		return flowMsg{}, false
	}
}

// send sends on ch unless the iteration is canceled first.
func (r *iterRun) send(ch chan flowMsg, msg flowMsg) bool {
	select {
	case ch <- msg:
		return true
	case <-r.done:
		return false
	}
}

// stage runs stage s's schedule row. A panic is recovered into errs[s] and
// cancels the iteration so peer stages blocked on this one unblock and exit.
func (r *iterRun) stage(s int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.errs[s] = fmt.Errorf("train: stage %d: %v", s, rec)
			r.cancel()
		}
	}()
	p := r.pipe
	np := len(p.Stages)
	stage := p.Stages[s]
	var sr *obs.StageRecorder
	if p.Recorder != nil {
		sr = p.Recorder.Stage(s)
	}
	ctxs := r.ctxs[s]
	var live int64
	for _, op := range r.sched.Ops[s] {
		m := op.Micros[0]
		// Recording brackets each op: the channel receive is timed as
		// stall, everything after it as compute. Every recording call sits
		// behind a nil check so the default (nil recorder) hot path reads
		// no clocks and allocates nothing extra.
		var opWait time.Duration
		var opStart, waitStart time.Time
		switch op.Kind {
		case schedule.Forward:
			var x *tensor.Mat
			if s > 0 {
				if sr != nil {
					waitStart = time.Now()
				}
				msg, ok := r.recv(r.fwd[s-1])
				if !ok {
					return
				}
				if sr != nil {
					opWait = time.Since(waitStart)
				}
				if msg.micro != m {
					panic(fmt.Sprintf("forward order violation: got micro %d want %d", msg.micro, m))
				}
				x = msg.m
			}
			if sr != nil {
				opStart = time.Now()
			}
			y, ctx := stage.Forward(r.batches[m].Tokens, x)
			ctxs[m] = ctx
			live += ctx.SavedBytes()
			if live > p.PeakActBytes[s] {
				p.PeakActBytes[s] = live
			}
			if s == np-1 {
				if stage.HeadProj == nil {
					panic("last stage has no head")
				}
				loss, dl := CrossEntropy(&stage.arena, y, r.batches[m].Targets)
				r.losses[m] = loss
				r.dlogits[m] = dl
			} else {
				if !r.send(r.fwd[s], flowMsg{micro: m, m: y}) {
					return
				}
			}
			if sr != nil {
				sr.Record(op, opStart, time.Now(), opWait, live)
			}
		case schedule.Backward:
			var dy *tensor.Mat
			if s == np-1 {
				dy = r.dlogits[m]
				r.dlogits[m] = nil
			} else {
				if sr != nil {
					waitStart = time.Now()
				}
				msg, ok := r.recv(r.bwd[s])
				if !ok {
					return
				}
				if sr != nil {
					opWait = time.Since(waitStart)
				}
				if msg.micro != m {
					panic(fmt.Sprintf("backward order violation: got micro %d want %d", msg.micro, m))
				}
				dy = msg.m
			}
			if sr != nil {
				opStart = time.Now()
			}
			ctx := ctxs[m]
			live -= ctx.SavedBytes()
			ctxs[m] = nil
			dx := stage.Backward(ctx, dy)
			if s > 0 {
				if !r.send(r.bwd[s-1], flowMsg{micro: m, m: dx}) {
					return
				}
			}
			if sr != nil {
				sr.Record(op, opStart, time.Now(), opWait, live)
			}
		}
	}
}

// RunConfig describes a full training run.
type RunConfig struct {
	// Net sizes the model.
	Net Config
	// Bounds are the stage layer bounds over the layer sequence
	// (len = stages+1).
	Bounds []int
	// Saves holds per-stage, per-block recomputation strategies; nil saves
	// everything.
	Saves [][]SaveSpec
	// Steps is the iteration count.
	Steps int
	// MicroBatches is n, the micro-batches per iteration.
	MicroBatches int
	// LR is the Adam learning rate.
	LR float64
	// DataSeed seeds corpus sampling (identical seeds give identical
	// batches regardless of partitioning).
	DataSeed uint64
	// Record attaches an op recorder to the pipeline; the run result then
	// carries the measured Trace of the final step (the steady-state
	// iteration, free of allocator warm-up). Off by default: recording
	// reads two clocks per channel op and allocates span buffers.
	Record bool
}

// RunResult is a completed training run.
type RunResult struct {
	// Losses is the per-step mean loss (the Figure 10 curve). On a mid-run
	// error it holds only the completed steps, so the tail cannot be
	// mistaken for converged loss.
	Losses []float64
	// PeakActBytes is the per-stage live-activation high-water mark.
	PeakActBytes []int64
	// Trace is the measured trace of the final step when RunConfig.Record
	// was set; nil otherwise.
	Trace *Trace
}

// Run builds a network, partitions it, and trains it on a synthetic corpus.
func Run(rc RunConfig) (RunResult, error) {
	return RunContext(context.Background(), rc)
}

// RunContext is Run with cooperative cancellation checked between optimizer
// steps: a cancelled run returns the losses of the steps that completed plus
// ctx.Err(), exactly like any other mid-run failure (the tail is never
// zero-padded). Steps themselves are atomic — cancellation never tears one.
func RunContext(ctx context.Context, rc RunConfig) (RunResult, error) {
	pipe, err := newRunPipeline(rc)
	if err != nil {
		return RunResult{}, err
	}
	return runSteps(ctx, rc, pipe, pipe.Step)
}

// newRunPipeline builds the pipeline a run trains: a network sized by rc.Net,
// split at rc.Bounds under rc.Saves, with an op recorder when rc.Record is
// set.
func newRunPipeline(rc RunConfig) (*Pipeline, error) {
	net, err := NewNet(rc.Net)
	if err != nil {
		return nil, err
	}
	stages, err := Split(net, rc.Bounds, rc.Saves)
	if err != nil {
		return nil, err
	}
	pipe := NewPipeline(stages, rc.LR)
	if rc.Record {
		pipe.Recorder = obs.NewRecorder()
	}
	return pipe, nil
}

// runSteps feeds rc.Steps iterations of the run's batch stream to step,
// checking ctx before each, and reports pipe's activation peaks and final
// trace alongside the losses of the steps that completed.
func runSteps(ctx context.Context, rc RunConfig, pipe *Pipeline, step func([]Batch) (float64, error)) (RunResult, error) {
	corpus := NewCorpus(rc.Net.Vocab, 1<<16, rc.DataSeed+7)
	rng := tensor.NewRNG(rc.DataSeed)
	var res RunResult
	var err error
	for i := 0; i < rc.Steps; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		var loss float64
		if loss, err = step(corpus.Batches(rc.MicroBatches, rc.Net.Seq, rng)); err != nil {
			break
		}
		res.Losses = append(res.Losses, loss)
	}
	res.PeakActBytes = pipe.PeakActBytes
	if pipe.Recorder != nil {
		res.Trace = pipe.Recorder.Trace()
	}
	return res, err
}
