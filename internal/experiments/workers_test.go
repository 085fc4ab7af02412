package experiments

import (
	"reflect"
	"testing"
)

// TestFiguresWorkerInvariance is the -workers contract for every
// figure that fans out on fleet.Map: one worker and four must return
// deep-equal results.
func TestFiguresWorkerInvariance(t *testing.T) {
	figures := []struct {
		name string
		run  func(Options) (any, error)
	}{
		{"fig3", func(o Options) (any, error) { return Figure3(o) }},
		{"fig4", func(o Options) (any, error) { return Figure4(o) }},
		{"fig5", func(o Options) (any, error) { return Figure5(o) }},
		{"fig11", func(o Options) (any, error) { return Figure11(o) }},
		{"fig12", func(o Options) (any, error) { return Figure12(o) }},
		{"fig13", func(o Options) (any, error) { return Figure13(o) }},
	}
	// The parallel runs share one Cache, which their workers fill
	// concurrently; the serial runs are cold.
	shared := NewCache()
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			parallel, err := fig.run(Options{Intervals: 120, Seed: 3, Workers: 4, Cache: shared})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := fig.run(Options{Intervals: 120, Seed: 3, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("workers=4 differs from workers=1:\n%+v\n%+v", parallel, serial)
			}
		})
	}
}
