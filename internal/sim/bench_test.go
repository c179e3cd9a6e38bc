package sim

import (
	"fmt"
	"testing"

	"adapipe/internal/schedule"
)

// skewed returns p stage costs that differ stage to stage, with P2P
// communication charged on every hop, like a searched plan's.
func skewed(p int) []StageCost {
	costs := make([]StageCost, p)
	for s := range costs {
		f := 1 + 0.125*float64(s%3)
		costs[s] = StageCost{
			Fwd: f, Bwd: 2*f + 0.0625*float64(s%4),
			CommFwd: 0.03125, CommBwd: 0.03125,
			SavedPerMicro: 1 << 20, Static: 1 << 30,
		}
	}
	return costs
}

// BenchmarkRun times sim.Run alone on a prebuilt 1F1B schedule at the
// pipeline shapes of the replan_sweep workload's training runs (p stages,
// n micro-batches): every replan simulates two plans of its run's shape.
func BenchmarkRun(b *testing.B) {
	for _, sh := range []struct{ p, n int }{{8, 32}, {16, 32}, {16, 64}} {
		b.Run(fmt.Sprintf("p%d_n%d", sh.p, sh.n), func(b *testing.B) {
			sched, err := schedule.OneFOneB(sh.p, sh.n)
			if err != nil {
				b.Fatal(err)
			}
			in := Input{Sched: sched, Stages: skewed(sh.p)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
