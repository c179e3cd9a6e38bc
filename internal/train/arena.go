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
// A failed or cancelled iteration never releases its in-flight buffers: they
// are dropped to the garbage collector, the free lists hold only buffers
// nobody references, and a retry from a snapshot — or a Rebind onto new
// stages with new arenas — computes on exactly the values it would have
// without reuse.
//
// get does not clear: whoever takes a buffer writes all of it. A nil *arena
// allocates and never reuses, which is what the unit-level tests pass.
type arena struct {
	free map[int][]*tensor.Mat
	// poison is set by in-package tests only: a released buffer is filled
	// with NaN, so a read after release turns the loss NaN, and a second
	// release of the same buffer panics.
	poison bool
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
