package schedule

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildersValidate(t *testing.T) {
	for p := 2; p <= 8; p += 2 {
		for _, n := range []int{2 * p, 4 * p} {
			for _, mk := range []struct {
				name string
				f    func(int, int) (*Schedule, error)
			}{
				{"1F1B", OneFOneB}, {"GPipe", GPipe}, {"Chimera", Chimera}, {"ChimeraD", ChimeraD},
			} {
				s, err := mk.f(p, n)
				if err != nil {
					t.Fatalf("%s(%d,%d): %v", mk.name, p, n, err)
				}
				if err := s.Validate(); err != nil {
					t.Errorf("%s(%d,%d): %v", mk.name, p, n, err)
				}
				if s.Devices() != p {
					t.Errorf("%s(%d,%d): %d devices", mk.name, p, n, s.Devices())
				}
			}
		}
	}
}

func TestOneFOneBOpCounts(t *testing.T) {
	const p, n = 4, 10
	s, err := OneFOneB(p, n)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < p; d++ {
		if got := len(s.Ops[d]); got != 2*n {
			t.Errorf("device %d has %d ops, want %d", d, got, 2*n)
		}
	}
}

func TestOneFOneBWarmupCounts(t *testing.T) {
	const p, n = 4, 10
	s, _ := OneFOneB(p, n)
	for d := 0; d < p; d++ {
		// Count forwards before the first backward: must be p−d (§2.1
		// says stage s holds p−s micro-batches; the (p−d−1) warmup
		// forwards plus the steady phase's leading forward).
		count := 0
		for _, op := range s.Ops[d] {
			if op.Kind == Backward {
				break
			}
			count++
		}
		if count != p-d {
			t.Errorf("stage %d runs %d forwards before its first backward, want %d", d, count, p-d)
		}
	}
}

// maxInFlight returns, per device, the maximum number of micro-batches with
// a completed forward whose backward has not yet run, per the op order.
func maxInFlight(ops []Op) int {
	live, peak := 0, 0
	for _, op := range ops {
		if op.Kind == Forward {
			live += len(op.Micros)
			if live > peak {
				peak = live
			}
		} else {
			live -= len(op.Micros)
		}
	}
	return peak
}

func TestOneFOneBInFlightBound(t *testing.T) {
	const p, n = 6, 18
	s, _ := OneFOneB(p, n)
	for d := 0; d < p; d++ {
		if got := maxInFlight(s.Ops[d]); got != p-d {
			t.Errorf("stage %d in-flight = %d, want %d", d, got, p-d)
		}
	}
}

func TestGPipeInFlightIsN(t *testing.T) {
	const p, n = 4, 12
	s, _ := GPipe(p, n)
	for d := 0; d < p; d++ {
		if got := maxInFlight(s.Ops[d]); got != n {
			t.Errorf("stage %d in-flight = %d, want %d (GPipe holds everything)", d, got, n)
		}
	}
}

func TestGPipeBackwardReversed(t *testing.T) {
	s, _ := GPipe(3, 5)
	ops := s.Ops[0]
	lastF := -1
	for i, op := range ops {
		if op.Kind == Forward {
			lastF = i
		}
	}
	prev := 1 << 30
	for _, op := range ops[lastF+1:] {
		if op.Micros[0] >= prev {
			t.Fatal("GPipe backwards not in reverse micro order")
		}
		prev = op.Micros[0]
	}
}

func TestChimeraSplitsPipelines(t *testing.T) {
	const p, n = 4, 8
	s, err := Chimera(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Bidirectional {
		t.Error("Chimera not marked bidirectional")
	}
	// Each device hosts exactly two logical stages: d (down) and p−1−d (up).
	for d := 0; d < p; d++ {
		stages := map[[2]int]bool{}
		for _, op := range s.Ops[d] {
			stages[[2]int{op.Pipeline, op.Stage}] = true
		}
		if len(stages) != 2 {
			t.Errorf("device %d hosts %d (pipeline,stage) pairs, want 2", d, len(stages))
		}
		if !stages[[2]int{0, d}] || !stages[[2]int{1, p - 1 - d}] {
			t.Errorf("device %d hosts %v", d, stages)
		}
	}
}

func TestChimeraKeysRespectDependencies(t *testing.T) {
	// Per-device in-order execution requires every op's dependency to be
	// scheduled earlier in a globally consistent priority. Verify the
	// cross-device invariant directly: a forward at stage s appears in its
	// device list before the forward of the same micro at stage s+1
	// appears in *its* device list position-wise is not meaningful, but
	// per-device ordering of same-micro ops must respect F-before-B.
	s, _ := Chimera(4, 8)
	for d := range s.Ops {
		seenB := map[[3]int]bool{}
		for _, op := range s.Ops[d] {
			for _, m := range op.Micros {
				key := [3]int{op.Pipeline, op.Stage, m}
				if op.Kind == Forward && seenB[key] {
					t.Fatalf("device %d: forward after backward for %v", d, key)
				}
				if op.Kind == Backward {
					seenB[key] = true
				}
			}
		}
	}
}

func TestChimeraDDoublesForwards(t *testing.T) {
	const p, n = 4, 16
	s, err := ChimeraD(p, n)
	if err != nil {
		t.Fatal(err)
	}
	for d := range s.Ops {
		var fwd, bwd int
		for _, op := range s.Ops[d] {
			switch op.Kind {
			case Forward:
				if len(op.Micros) != 2 {
					t.Fatalf("forward op carries %d micros, want 2", len(op.Micros))
				}
				if op.Micros[1] != op.Micros[0]+1 {
					t.Fatalf("forward pair %v not adjacent", op.Micros)
				}
				fwd++
			case Backward:
				if len(op.Micros) != 1 {
					t.Fatalf("backward op carries %d micros, want 1", len(op.Micros))
				}
				bwd++
			}
		}
		if fwd != n/2 || bwd != n {
			t.Errorf("device %d: %d doubled forwards and %d backwards, want %d and %d", d, fwd, bwd, n/2, n)
		}
	}
}

// keyedOp pairs an op with its slot priority: the construction Chimera and
// ChimeraD used before they merged, kept as their oracle.
type keyedOp struct {
	op  Op
	key float64
}

// chimeraKeyed builds Chimera's per-device orders (ChimeraD's at w = 2) by
// stable-sorting every op of a device on its slot priority. Entry e's
// forward carries micro-batches w·e … w·e+w−1, and its i-th backward the
// micro-batch w·e+i at a quarter slot after the (i−1)-th.
func chimeraKeyed(p, n, w int) [][]Op {
	micros := func(m, k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = m + i
		}
		return ids
	}
	out := make([][]Op, p)
	for d := 0; d < p; d++ {
		var ops []keyedOp
		for unit := 0; unit < n/(w*p); unit++ {
			base := unit * p
			off := float64(unit) * 4 * float64(p)
			for k := 0; k < p/2; k++ {
				down, up := base+k, base+p/2+k
				ops = append(ops,
					keyedOp{Op{Kind: Forward, Micros: micros(w*down, w), Stage: d, Pipeline: 0}, off + float64(d+k)},
					keyedOp{Op{Kind: Forward, Micros: micros(w*up, w), Stage: p - 1 - d, Pipeline: 1}, off + float64(p-1-d+k) + 0.5})
				for i := 0; i < w; i++ {
					q := 0.25 * float64(i)
					ops = append(ops,
						keyedOp{Op{Kind: Backward, Micros: micros(w*down+i, 1), Stage: d, Pipeline: 0}, off + float64(2*p) + float64(2*k) + float64(p-1-d) + q},
						keyedOp{Op{Kind: Backward, Micros: micros(w*up+i, 1), Stage: p - 1 - d, Pipeline: 1}, off + float64(2*p) + float64(2*k) + float64(d) + 0.5 + q})
				}
			}
		}
		slices.SortStableFunc(ops, func(a, b keyedOp) int { return cmp.Compare(a.key, b.key) })
		for _, k := range ops {
			out[d] = append(out[d], k.op)
		}
	}
	return out
}

// TestChimeraMatchesKeyedOrder: the merged per-device orders equal the
// key-sorted construction, op for op, for every even p up to 32 over one to
// four scheduling units, with and without forward doubling.
func TestChimeraMatchesKeyedOrder(t *testing.T) {
	for p := 2; p <= 32; p += 2 {
		for units := 1; units <= 4; units++ {
			for w, build := range map[int]func(p, n int) (*Schedule, error){1: Chimera, 2: ChimeraD} {
				n := w * units * p
				s, err := build(p, n)
				if err != nil {
					t.Fatal(err)
				}
				if want := chimeraKeyed(p, n, w); !reflect.DeepEqual(s.Ops, want) {
					t.Fatalf("%s(%d, %d): merged order differs from the keyed order", s.Name, p, n)
				}
			}
		}
	}
}

func TestChimeraConstraints(t *testing.T) {
	if _, err := Chimera(3, 6); err == nil {
		t.Error("odd stage count accepted")
	}
	if _, err := Chimera(4, 6); err == nil {
		t.Error("non-divisible micro count accepted")
	}
	if _, err := ChimeraD(4, 12); err == nil {
		t.Error("ChimeraD with n not divisible by 2p accepted")
	}
}

func TestInterleaved(t *testing.T) {
	s, err := Interleaved(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stages != 4 {
		t.Errorf("interleaved logical stages = %d, want 4", s.Stages)
	}
	if s.Devices() != 2 {
		t.Errorf("interleaved devices = %d, want 2", s.Devices())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	// Megatron's order: device 0 warms up with 2(p−1) + (v−1)p = 4
	// forwards, device 1 with 2.
	for d, want := range []string{
		"F[0]@0 F[1]@0 F[0]@2 F[1]@2 F[2]@0 B[0]@2 F[3]@0 B[1]@2 F[2]@2 B[0]@0 F[3]@2 B[1]@0 B[2]@2 B[3]@2 B[2]@0 B[3]@0",
		"F[0]@1 F[1]@1 F[0]@3 B[0]@3 F[1]@3 B[1]@3 F[2]@1 B[0]@1 F[3]@1 B[1]@1 F[2]@3 B[2]@3 F[3]@3 B[3]@3 B[2]@1 B[3]@1",
	} {
		var got []string
		for _, op := range s.Ops[d] {
			got = append(got, op.String())
		}
		if g := strings.Join(got, " "); g != want {
			t.Errorf("device %d runs\n%s\nwant\n%s", d, g, want)
		}
	}
	// v=1 degenerates to plain 1F1B.
	s1, err := Interleaved(3, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Name != "1F1B" {
		t.Errorf("v=1 name = %q", s1.Name)
	}
	if _, err := Interleaved(2, 5, 2); err == nil {
		t.Error("non-divisible interleaved accepted")
	}
	if _, err := Interleaved(2, 4, 0); err == nil {
		t.Error("zero chunks accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s, _ := OneFOneB(2, 2)
	s.Ops[0] = append(s.Ops[0], Op{Kind: Forward, Micros: []int{0}, Stage: 0})
	if err := s.Validate(); err == nil {
		t.Error("duplicate forward not caught")
	}
	s2, _ := OneFOneB(2, 2)
	// Remove a backward.
	ops := s2.Ops[1]
	for i, op := range ops {
		if op.Kind == Backward {
			s2.Ops[1] = append(ops[:i], ops[i+1:]...)
			break
		}
	}
	if err := s2.Validate(); err == nil {
		t.Error("missing backward not caught")
	}
	// Drop every op of micro 2: the simulator would price an iteration of
	// 9 instead of 12.
	s3, _ := OneFOneB(2, 3)
	for d, ops := range s3.Ops {
		s3.Ops[d] = slices.DeleteFunc(ops, func(op Op) bool { return op.Micros[0] == 2 })
	}
	if err := s3.Validate(); err == nil || !strings.Contains(err.Error(), "micro 2 runs at 0 of 2 stages") {
		t.Errorf("a lost micro-batch: Validate = %v", err)
	}
	// Drop one forward: its backward is left alone.
	s4, _ := OneFOneB(2, 2)
	s4.Ops[1] = slices.DeleteFunc(s4.Ops[1], func(op Op) bool { return op.Kind == Forward && op.Micros[0] == 1 })
	if err := s4.Validate(); err == nil || !strings.Contains(err.Error(), "backward of micro 1 at stage 1 (pipeline 0) has no forward") {
		t.Errorf("a backward without its forward: Validate = %v", err)
	}
	// A micro-batch that skips a stage altogether.
	s5, _ := OneFOneB(2, 2)
	s5.Ops[1] = slices.DeleteFunc(s5.Ops[1], func(op Op) bool { return op.Micros[0] == 0 })
	if err := s5.Validate(); err == nil || !strings.Contains(err.Error(), "micro 0 runs at 1 of 2 stages") {
		t.Errorf("a skipped stage: Validate = %v", err)
	}
	// A Chimera micro-batch moved to the other pipeline at one stage.
	s6, _ := Chimera(2, 2)
	for i, op := range s6.Ops[0] {
		if op.Micros[0] == 0 {
			s6.Ops[0][i].Pipeline, s6.Ops[0][i].Stage = 1, 1
		}
	}
	if err := s6.Validate(); err == nil || !strings.Contains(err.Error(), "micro 0 runs in pipelines 0 and 1") {
		t.Errorf("a micro-batch in both pipelines: Validate = %v", err)
	}
}

// TestValidateRejectsOpsOutsideTheShape holds Validate to the schedule's own
// shape: an op whose micro, stage, pipeline or kind has no place in it is an
// error, not something the simulator indexes with. Each row adds a forward
// and its backward, so the counts alone would look fine.
func TestValidateRejectsOpsOutsideTheShape(t *testing.T) {
	pair := func(fwd Op) []Op {
		bwd := fwd
		bwd.Kind = Backward
		return []Op{fwd, bwd}
	}
	for _, tc := range []struct {
		name  string
		build func(int, int) (*Schedule, error)
		add   []Op
		want  string
	}{
		{"micro_past_n", OneFOneB, pair(Op{Kind: Forward, Micros: []int{5}, Stage: 0}), "names micro 5 of 2"},
		{"micro_at_n", OneFOneB, pair(Op{Kind: Forward, Micros: []int{2}, Stage: 1}), "names micro 2 of 2"},
		{"negative_micro", OneFOneB, pair(Op{Kind: Forward, Micros: []int{-1}, Stage: 0}), "names micro -1 of 2"},
		{"stage_past_p", OneFOneB, pair(Op{Kind: Forward, Micros: []int{0}, Stage: 2}), "names stage 2 of 2"},
		{"negative_stage", GPipe, pair(Op{Kind: Forward, Micros: []int{0}, Stage: -1}), "names stage -1 of 2"},
		{"up_pipeline_one_way", OneFOneB, pair(Op{Kind: Forward, Micros: []int{0}, Stage: 0, Pipeline: 1}), "names pipeline 1 of 1"},
		{"third_pipeline", Chimera, pair(Op{Kind: Forward, Micros: []int{0}, Stage: 0, Pipeline: 2}), "names pipeline 2 of 2"},
		{"negative_pipeline", Chimera, pair(Op{Kind: Forward, Micros: []int{0}, Stage: 0, Pipeline: -1}), "names pipeline -1 of 2"},
		{"unknown_kind", OneFOneB, []Op{{Kind: 2, Micros: []int{0}, Stage: 0}}, "unknown kind 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			s.Ops[0] = append(s.Ops[0], tc.add...)
			err = s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// builders lists every builder at a fixed interleaving factor.
var builders = []struct {
	name  string
	build func(p, n int) (*Schedule, error)
}{
	{"1F1B", OneFOneB},
	{"GPipe", GPipe},
	{"Chimera", Chimera},
	{"ChimeraD", ChimeraD},
	{"Interleaved-2", func(p, n int) (*Schedule, error) { return Interleaved(p, n, 2) }},
}

// TestBuildersShareOneSlab pins the builders' allocations: each device's ops
// fill a capped window of one slab and every op's Micros a capped window of
// one id array, so a build allocates the same few objects whatever n is, and
// an append to one device's ops or one op's ids copies rather than writing
// into a neighbour's.
func TestBuildersShareOneSlab(t *testing.T) {
	for _, mk := range builders {
		var allocs [2]float64
		for k, n := range []int{8, 64} {
			s, err := mk.build(4, n)
			if err != nil {
				t.Fatal(err)
			}
			for d, ops := range s.Ops {
				if len(ops) != cap(ops) {
					t.Fatalf("%s(4,%d) device %d: %d ops in a window of %d", mk.name, n, d, len(ops), cap(ops))
				}
				for _, op := range ops {
					if len(op.Micros) != cap(op.Micros) {
						t.Fatalf("%s(4,%d): op %s has its ids capped at %d", mk.name, n, op, cap(op.Micros))
					}
				}
			}
			allocs[k] = testing.AllocsPerRun(10, func() {
				if _, err := mk.build(4, n); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] || allocs[1] > 6 {
			t.Errorf("%s allocates %.0f objects at n=8 and %.0f at n=64, want one count of at most 6", mk.name, allocs[0], allocs[1])
		}
	}
}

// validateReference is Validate as it was written before the dense counts:
// a map of counts, checked in sorted key order, then every micro-batch's
// stages counted off the same map. It accepts ops outside the schedule's
// shape, so FuzzValidateMatchesReference compares the two only on in-range
// schedules.
func validateReference(s *Schedule) error {
	type key struct {
		kind         Kind
		micro, stage int
		pipeline     int
	}
	seen := map[key]int{}
	for d := range s.Ops {
		for _, op := range s.Ops[d] {
			for _, m := range op.Micros {
				seen[key{op.Kind, m, op.Stage, op.Pipeline}]++
			}
		}
	}
	keys := make([]key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pipeline != b.pipeline {
			return a.pipeline < b.pipeline
		}
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		if a.micro != b.micro {
			return a.micro < b.micro
		}
		return a.kind < b.kind
	})
	for _, k := range keys {
		c := seen[k]
		if c != 1 {
			return fmt.Errorf("schedule %s: %s of micro %d at stage %d (pipeline %d) appears %d times",
				s.Name, k.kind, k.micro, k.stage, k.pipeline, c)
		}
		if k.kind == Forward {
			if seen[key{Backward, k.micro, k.stage, k.pipeline}] != 1 {
				return fmt.Errorf("schedule %s: forward of micro %d at stage %d has no backward", s.Name, k.micro, k.stage)
			}
		} else if seen[key{Forward, k.micro, k.stage, k.pipeline}] == 0 {
			return fmt.Errorf("schedule %s: backward of micro %d at stage %d (pipeline %d) has no forward", s.Name, k.micro, k.stage, k.pipeline)
		}
	}
	pipes := 1
	if s.Bidirectional {
		pipes = 2
	}
	for m := 0; m < s.Micros; m++ {
		var stages []int // stages[p] = the stages micro m runs at in pipeline p
		for p := 0; p < pipes; p++ {
			stages = append(stages, 0)
			for st := 0; st < s.Stages; st++ {
				stages[p] += seen[key{Forward, m, st, p}]
			}
		}
		var in []int
		for p, n := range stages {
			if n > 0 {
				in = append(in, p)
			}
		}
		switch {
		case len(in) > 1:
			return fmt.Errorf("schedule %s: micro %d runs in pipelines %d and %d", s.Name, m, in[0], in[1])
		case len(in) == 0 && s.Stages != 0:
			return fmt.Errorf("schedule %s: micro %d runs at 0 of %d stages", s.Name, m, s.Stages)
		case len(in) == 1 && stages[in[0]] != s.Stages:
			return fmt.Errorf("schedule %s: micro %d runs at %d of %d stages", s.Name, m, stages[in[0]], s.Stages)
		}
	}
	return nil
}

func TestBadArgs(t *testing.T) {
	for _, mk := range []func(int, int) (*Schedule, error){OneFOneB, GPipe} {
		if _, err := mk(0, 4); err == nil {
			t.Error("zero stages accepted")
		}
		if _, err := mk(4, 0); err == nil {
			t.Error("zero micros accepted")
		}
	}
}

func TestOneFOneBProperty(t *testing.T) {
	f := func(pp, nn uint8) bool {
		p := int(pp%8) + 1
		n := p + int(nn%12)
		s, err := OneFOneB(p, n)
		if err != nil {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		for d := 0; d < p; d++ {
			if maxInFlight(s.Ops[d]) != min(p-d, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	op := Op{Kind: Forward, Micros: []int{3}, Stage: 2}
	if got := op.String(); got != "F[3]@2" {
		t.Errorf("String = %q", got)
	}
	up := Op{Kind: Backward, Micros: []int{1}, Stage: 0, Pipeline: 1}
	if got := up.String(); got != "B[1]@0^" {
		t.Errorf("String = %q", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
