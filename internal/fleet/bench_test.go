package fleet

import (
	"context"
	"fmt"
	"testing"

	"phasemon/internal/governor"
)

// BenchmarkFleetSweep measures sweep throughput at several pool sizes
// over a fixed 16-run sweep (one workload, 16 distinct seeds, equal
// per-run work), each run a Play replay to its whole length. Every
// iteration replays every run over the engine's cached traces; on a
// multi-core machine the workers=8 case should approach an 8x speedup
// over workers=1, since runs share no mutable state.
//
// Run with:
//
//	go test -bench FleetSweep -benchtime 3x ./internal/fleet
func BenchmarkFleetSweep(b *testing.B) {
	const runs = 16
	specs := make([]Spec, runs)
	for i := range specs {
		specs[i] = Spec{
			Workload:  "applu_in",
			Policy:    "gpht_8_128",
			Intervals: 200,
			Seed:      int64(i + 1),
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(Config{Workers: workers})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := Play(context.Background(), e, specs, func(_ Spec, rp *governor.Replay) (uint64, error) {
					res, err := rp.Run(context.Background(), rp.Len())
					if err != nil {
						return 0, err
					}
					return res.Run.PMIs, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != runs {
					b.Fatalf("%d results, want %d", len(results), runs)
				}
			}
		})
	}
}
