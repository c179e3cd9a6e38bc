package train

import (
	"math"

	"adapipe/internal/tensor"
)

// arena is a stage's buffer free list, keyed by element count. Forward,
// recompute and backward take every activation, gradient and scratch matrix
// from it and return each the moment its last reader is done, so a
// steady-state step allocates no matrix at all.
//
// Ownership, not a lock, makes it safe: an arena belongs to its Stage, and a
// stage runs on one goroutine at a time (its stage goroutine inside
// Accumulate, which does not return before that goroutine has exited). A
// buffer has exactly one owner, and only the owner may release it:
//
//   - a unit (Linear, LayerNorm, the activation functions, the attention
//     core, CrossEntropy) owns its scratch and hands its outputs to the caller;
//   - a block's Forward takes over its input x and keeps, in its context, x
//     and the units the SaveSpec saves — the rest goes back before it returns;
//   - a block's Backward consumes the context and dy — everything pinned or
//     recomputed is released once the gradients are out — and hands dx to
//     the caller; Stage.Forward/Backward follow the same rule stage-wide;
//   - a boundary tensor sent to a neighbour stage changes owner with the
//     message. Stage s gives one y and gets one dy of the same size per
//     micro-batch (and the reverse downstream), so the lists stay balanced.
//
// The contexts that pin a micro-batch's activations from its forward to its
// backward pass are recycled under the same rule. Stage.Backward consumes its
// StageCtx and hands it back with ctx; the block contexts it holds stay with
// it, and the next Stage.Forward takes it, resets it and hands each block its
// own consumed context to reset and refill. So a steady-state step allocates
// no context either.
//
// A failed or cancelled iteration never releases its in-flight buffers or
// contexts: they are dropped to the garbage collector, the free lists hold
// only what nobody references, and the next step computes on exactly the
// values it would have without reuse.
//
// get does not clear: whoever takes a buffer writes all of it. A nil *arena
// allocates and never reuses, which is what the unit-level tests pass.
type arena struct {
	free map[int][]*tensor.Mat
	ctxs []*StageCtx
	// poison is set by in-package tests only: a released buffer is filled
	// with NaN, so a read after release turns the loss NaN, and a second
	// release of the same buffer panics. A released context is overwritten
	// with poisonMat, so a field its next Forward fails to reset is read as
	// a 1×1 NaN matrix; a second release of it panics too.
	poison bool
}

// poisonMat is what a poisoned arena writes into the fields of a released
// context: any read of it breaks a shape check or turns the loss NaN.
var poisonMat = tensor.FromSlice(1, 1, []float64{math.NaN()})

// takeCtx returns a reset stage context for a stage of nblocks blocks,
// keeping the consumed block contexts of a recycled one for reuse.
func (a *arena) takeCtx(nblocks int) *StageCtx {
	if n := len(a.ctxs); n > 0 {
		c := a.ctxs[n-1]
		a.ctxs = a.ctxs[:n-1]
		*c = StageCtx{blocks: c.blocks}
		return c
	}
	return &StageCtx{blocks: make([]BlockCtx, nblocks)}
}

// releaseCtx takes back a stage context that Stage.Backward has consumed.
func (a *arena) releaseCtx(c *StageCtx) {
	if a.poison {
		for _, f := range a.ctxs {
			if f == c {
				panic("train: context released twice")
			}
		}
		c.poison()
	}
	a.ctxs = append(a.ctxs, c)
}

// get returns a rows×cols matrix with unspecified contents.
func (a *arena) get(rows, cols int) *tensor.Mat {
	if a == nil {
		return tensor.New(rows, cols)
	}
	n := rows * cols
	l := a.free[n]
	if len(l) == 0 {
		return tensor.New(rows, cols)
	}
	m := l[len(l)-1]
	a.free[n] = l[:len(l)-1]
	m.Rows, m.Cols = rows, cols
	return m
}

// put releases matrices the caller owns; nil entries are skipped, so a
// context's optional fields can be released unconditionally.
func (a *arena) put(ms ...*tensor.Mat) {
	if a == nil {
		return
	}
	if a.free == nil {
		a.free = make(map[int][]*tensor.Mat)
	}
	for _, m := range ms {
		if m == nil {
			continue
		}
		n := len(m.Data)
		if a.poison {
			for _, f := range a.free[n] {
				if f == m {
					panic("train: buffer released twice")
				}
			}
			for i := range m.Data {
				m.Data[i] = math.NaN()
			}
		}
		a.free[n] = append(a.free[n], m)
	}
}

// keep returns m if saved; otherwise it releases m and returns nil — how a
// block's Forward applies its SaveSpec to one unit's output.
func (a *arena) keep(saved bool, m *tensor.Mat) *tensor.Mat {
	if saved {
		return m
	}
	a.put(m)
	return nil
}
