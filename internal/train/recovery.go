package train

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"adapipe/internal/obs"
)

// ErrNonFinite is wrapped by the supervisor's guard when a step produces a
// NaN/Inf loss or gradient; test with errors.Is.
var ErrNonFinite = errors.New("train: non-finite loss or gradient")

// Recovery is the step-level failure policy. The zero value disables
// recovery entirely: any iteration failure aborts the run, matching the
// pre-recovery engine.
type Recovery struct {
	// MaxRetries bounds how many times one step is retried after an
	// iteration error or guard trip. Each retry restores parameters and
	// Adam state from the in-memory snapshot of the last completed step,
	// so a successful retry is bit-identical to a fault-free step.
	MaxRetries int
	// Backoff is the base sleep before retry k sleeps Backoff << k;
	// zero retries immediately.
	Backoff time.Duration
	// GuardNonFinite scans the loss and every accumulated gradient before
	// the optimizer step; a NaN/Inf triggers a retry, and once the retry
	// budget is spent the step is skipped (gradients discarded, parameters
	// untouched) instead of poisoning the model.
	GuardNonFinite bool
}

func (r Recovery) enabled() bool { return r.MaxRetries > 0 || r.GuardNonFinite }

// HealthModel classifies step failures into transient faults and permanent
// node losses. *fault.Membership satisfies it; the supervisor depends only on
// this interface so train stays free of a fault import. The policy knob it
// embodies (how many consecutive failures before a node is declared dead) is
// deliberately distinct from Recovery.MaxRetries: retries answer "how often
// do we replay a step", the health threshold answers "when do we stop
// believing the node will come back".
type HealthModel interface {
	// ObserveFailure attributes one failed step to a stage. lost reports a
	// node newly declared permanently dead; down reports that the stage has
	// no backing left and the pipeline must be resized.
	ObserveFailure(stage int) (lost, down bool)
	// ObserveSuccess records a healthy step, clearing failure evidence.
	ObserveSuccess()
	// Resize reinstalls the model for a new pipeline shape after a resize.
	Resize(stages int) error
}

// Elastic configures elastic recovery: surviving permanent node loss (and
// optionally adopting scale-up arrivals) by replanning the surviving cluster
// shape and migrating training state onto it exactly. The zero value disables
// elasticity, matching the pre-elastic supervisor.
type Elastic struct {
	// Health classifies step failures; nil disables loss detection.
	Health HealthModel
	// Rebuild builds a pipeline for the cluster without the down stage's
	// backing (typically: hardware.Cluster.Resize, core.ReplanWithShape,
	// then Split a fresh net on the new bounds). The supervisor restores
	// the last snapshot and migrates state into the result via Rebind, so
	// Rebuild only plans and allocates — it never touches training state.
	// Required when Health is set: detecting a down stage with no way to
	// rebuild is a hard error.
	Rebuild func(downStage int) (*Pipeline, error)
	// Grow, when non-nil, is offered the injector's cumulative scale-up
	// arrival count after each completed step. Returning a nil pipeline
	// declines the offer (e.g. the planner found no faster shape); either
	// way the arrivals are recorded and not re-offered.
	Grow func(arrived int) (*Pipeline, error)
}

// Supervisor drives a pipeline step-by-step and applies the Recovery policy:
// snapshot after every completed step, guard before every optimizer step,
// bounded retry-with-backoff from the snapshot on failure. With an Elastic
// policy it additionally classifies repeated same-stage failures as permanent
// node loss and resizes the pipeline onto the surviving shape. It is the
// engine half of the fault-tolerance layer (internal/fault is the attack
// half).
type Supervisor struct {
	// Pipe is the supervised pipeline; Rebind swaps it mid-run.
	Pipe *Pipeline
	// Policy is the recovery policy, fixed at construction.
	Policy Recovery
	// Elastic is the elastic recovery policy; the zero value disables it.
	Elastic Elastic
	// Clock injects time for retry backoff and resize wall-time accounting;
	// nil uses obs.RealClock().
	Clock obs.Clock
	// Stats counts recovery actions (retries, skips, watchdog trips,
	// losses detected, resizes). Injected-fault counts live in the
	// injector; Counters merges both.
	Stats obs.FaultCounters

	snapshot []byte
	step     int
	// arrived is the scale-up arrival count already offered to Grow.
	arrived int
}

// NewSupervisor wraps a pipeline. With retries enabled it snapshots the
// initial parameters and optimizer state so even step 0 can be retried.
func NewSupervisor(p *Pipeline, policy Recovery) (*Supervisor, error) {
	sup := &Supervisor{Pipe: p, Policy: policy}
	if policy.MaxRetries > 0 {
		if err := sup.snap(); err != nil {
			return nil, err
		}
	}
	return sup, nil
}

// StepsCompleted reports how many steps have finished (applied or skipped).
func (sup *Supervisor) StepsCompleted() int { return sup.step }

// Counters returns recovery stats merged with the injector's fault counts.
// Counts from injectors retired by an elastic Rebind are folded into Stats at
// rebind time, so the sum stays lifetime-accurate across resizes.
func (sup *Supervisor) Counters() obs.FaultCounters {
	c := sup.Stats
	if fi := sup.Pipe.Fault; fi != nil {
		s, p, cr, nl := fi.InjectedCounts()
		c.Stragglers += s
		c.Panics += p
		c.Corruptions += cr
		c.NodeLosses += nl
	}
	return c
}

// Step runs one training iteration under the recovery policy. On success the
// optimizer is applied and a fresh snapshot taken. An iteration error or
// guard trip is retried up to MaxRetries times from the snapshot; a guard
// trip that exhausts the budget skips the optimizer step (returning the
// non-finite loss and a nil error so the run continues); an iteration error
// that exhausts the budget is returned.
//
// With an Elastic policy, every failure is also reported to the health model.
// When the blamed stage's backing is exhausted the supervisor resizes —
// restore the snapshot, Rebuild the surviving shape, Rebind onto it — and
// restarts the step with a fresh retry budget: no number of retries on the
// old shape can outrun a dead node, so the resize must not be charged
// against the transient-failure budget.
func (sup *Supervisor) Step(batches []Batch) (float64, error) {
	for try := 0; ; try++ {
		loss, err := sup.Pipe.Accumulate(batches)
		if err == nil {
			if !sup.Policy.GuardNonFinite || sup.finite(loss) {
				if sup.Elastic.Health != nil {
					sup.Elastic.Health.ObserveSuccess()
				}
				sup.Pipe.ApplyOptimizer(float64(len(batches)))
				sup.step++
				if sup.Policy.MaxRetries > 0 {
					if serr := sup.snap(); serr != nil {
						return loss, serr
					}
				}
				if gerr := sup.checkArrivals(); gerr != nil {
					return loss, gerr
				}
				return loss, nil
			}
			err = fmt.Errorf("train: step %d: %w", sup.step, ErrNonFinite)
		}
		if errors.Is(err, ErrWatchdog) {
			sup.Stats.WatchdogTrips++
		}
		if resized, herr := sup.observeFailure(err); herr != nil {
			return 0, herr
		} else if resized {
			try = -1 // fresh budget on the new shape (the loop's try++ makes it 0)
			continue
		}
		if try < sup.Policy.MaxRetries {
			sup.Stats.Retries++
			if rerr := sup.restore(); rerr != nil {
				return 0, rerr
			}
			if sup.Policy.Backoff > 0 {
				sup.sleep(sup.Policy.Backoff << try)
			}
			continue
		}
		if errors.Is(err, ErrNonFinite) {
			// Retry budget spent on a numeric blow-up: discard the poisoned
			// gradients and move on. Parameters are untouched (they only
			// change in ApplyOptimizer), so training continues from the
			// last good step; the recorded loss is the non-finite one.
			sup.Pipe.ZeroGrads()
			sup.Stats.SkippedSteps++
			sup.step++
			return loss, nil
		}
		return 0, err
	}
}

// observeFailure feeds a step failure to the elastic health model and, once
// the blamed stage's backing is exhausted, runs the resize. It reports
// whether a resize happened, in which case the caller restarts the step with
// a fresh retry budget.
func (sup *Supervisor) observeFailure(err error) (resized bool, _ error) {
	if sup.Elastic.Health == nil {
		return false, nil
	}
	var se *StageError
	if !errors.As(err, &se) {
		return false, nil
	}
	lost, down := sup.Elastic.Health.ObserveFailure(se.Stage)
	if lost {
		sup.Stats.LossesDetected++
	}
	if !down {
		return false, nil
	}
	return true, sup.resize(se.Stage)
}

// resize survives a permanent node loss: restore the last snapshot, Rebuild
// a pipeline for the surviving cluster shape, Rebind training state onto it
// exactly, and reinstall the health model for the new stage count. The wall
// time of the whole cycle lands in Stats.ReplanWallNanos.
func (sup *Supervisor) resize(downStage int) error {
	if sup.Elastic.Rebuild == nil {
		return fmt.Errorf("train: stage %d is permanently down and no elastic Rebuild is configured", downStage)
	}
	start := sup.clock()()
	if err := sup.restore(); err != nil {
		return err
	}
	next, err := sup.Elastic.Rebuild(downStage)
	if err != nil {
		return fmt.Errorf("train: elastic rebuild after stage %d loss: %w", downStage, err)
	}
	if err := sup.Rebind(next); err != nil {
		return err
	}
	if err := sup.Elastic.Health.Resize(len(next.Stages)); err != nil {
		return err
	}
	sup.Stats.Resizes++
	sup.Stats.ReplanWallNanos += sup.clock()().Sub(start).Nanoseconds()
	return nil
}

// nodeArrivals is the optional injector capability elastic scale-up keys on;
// *fault.Injector implements it.
type nodeArrivals interface{ ArrivedNodes(attempt int) int }

// checkArrivals polls the injector for scale-up arrivals after a completed
// step and offers newly arrived nodes to the Grow hook.
func (sup *Supervisor) checkArrivals() error {
	if sup.Elastic.Grow == nil {
		return nil
	}
	na, ok := sup.Pipe.Fault.(nodeArrivals)
	if !ok {
		return nil
	}
	arrived := na.ArrivedNodes(sup.Pipe.Attempts())
	if arrived <= sup.arrived {
		return nil
	}
	start := sup.clock()()
	next, err := sup.Elastic.Grow(arrived)
	if err != nil {
		return fmt.Errorf("train: elastic grow to %d arrived nodes: %w", arrived, err)
	}
	sup.arrived = arrived
	if next == nil {
		return nil // declined; the arrivals stay recorded so they are not re-offered
	}
	if err := sup.Rebind(next); err != nil {
		return err
	}
	if sup.Elastic.Health != nil {
		if err := sup.Elastic.Health.Resize(len(next.Stages)); err != nil {
			return err
		}
	}
	sup.Stats.Resizes++
	sup.Stats.ReplanWallNanos += sup.clock()().Sub(start).Nanoseconds()
	return nil
}

// Rebind moves supervised training onto a re-partitioned pipeline: the
// current parameters and optimizer state are checkpointed out of the old
// pipeline and restored (by parameter name) into the new one. The new
// pipeline inherits the fault injector, watchdog and recorder only where it
// has none of its own, so an elastic Rebuild can install a fresh injector
// for the new shape; when an injector is retired this way its fault counts
// are folded into Stats first. This is how straggler-driven replans and
// elastic resizes are adopted mid-run without losing progress.
func (sup *Supervisor) Rebind(next *Pipeline) error {
	if next == nil {
		return errors.New("train: cannot rebind to a nil pipeline")
	}
	if got, want := next.LayerCount(), sup.Pipe.LayerCount(); got != want {
		return fmt.Errorf("train: rebind layer-count mismatch: next pipeline holds %d layers, current holds %d (repartitioning moves boundaries, it cannot create or destroy layers)", got, want)
	}
	b, err := sup.Pipe.CheckpointBytes(sup.step)
	if err != nil {
		return err
	}
	if _, err := next.LoadCheckpoint(bytes.NewReader(b)); err != nil {
		return err
	}
	if next.Fault == nil {
		next.Fault = sup.Pipe.Fault
	} else if old := sup.Pipe.Fault; old != nil && old != next.Fault {
		s, p, cr, nl := old.InjectedCounts()
		sup.Stats.Stragglers += s
		sup.Stats.Panics += p
		sup.Stats.Corruptions += cr
		sup.Stats.NodeLosses += nl
	}
	if next.Watchdog == 0 {
		next.Watchdog = sup.Pipe.Watchdog
	}
	if next.Recorder == nil {
		next.Recorder = sup.Pipe.Recorder
	}
	sup.Pipe = next
	if sup.Policy.MaxRetries > 0 {
		sup.snapshot = b
	}
	return nil
}

// clock returns the supervisor's time source (Clock, or the real clock).
func (sup *Supervisor) clock() obs.Clock {
	if sup.Clock != nil {
		return sup.Clock
	}
	return obs.RealClock()
}

// sleep pauses for d as measured on the supervisor's clock. Under the real
// clock this is a single time.Sleep; under a fake clock that advances on
// read it returns as soon as the clock passes the deadline, so backoff tests
// spend no wall time.
func (sup *Supervisor) sleep(d time.Duration) {
	clock := sup.clock()
	deadline := clock().Add(d)
	for {
		rem := deadline.Sub(clock())
		if rem <= 0 {
			return
		}
		time.Sleep(rem)
	}
}

// snap captures the post-step parameters and optimizer state in memory.
func (sup *Supervisor) snap() error {
	b, err := sup.Pipe.CheckpointBytes(sup.step)
	if err != nil {
		return err
	}
	sup.snapshot = b
	return nil
}

// restore rewinds to the last snapshot. Without one (guard-only policy)
// discarding gradients is sufficient: a failed Accumulate never touches
// parameters or optimizer state.
func (sup *Supervisor) restore() error {
	if sup.snapshot == nil {
		sup.Pipe.ZeroGrads()
		return nil
	}
	if _, err := sup.Pipe.LoadCheckpoint(bytes.NewReader(sup.snapshot)); err != nil {
		return err
	}
	return nil
}

// finite reports whether the loss and every accumulated gradient are finite.
func (sup *Supervisor) finite(loss float64) bool {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return false
	}
	for _, s := range sup.Pipe.Stages {
		for _, prm := range s.Params() {
			for _, v := range prm.G.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
	}
	return true
}
