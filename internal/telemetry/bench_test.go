package telemetry

import (
	"testing"
)

// The instrument benchmarks document the per-operation budget: the
// target is <50 ns/op for counter and histogram updates (not
// enforced — compare the -bench output against it).

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() == 0 {
		b.Fatal("counter not incremented")
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := mustHistogram(b, DefaultMemPerUopBounds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%40) / 1000)
	}
	if h.Snapshot().Count == 0 {
		b.Fatal("histogram not fed")
	}
}

// BenchmarkJournalRecord costs journaling one event through the one
// journal write path: a PMI sample recorded into a StepBatch and
// published as a batch of one.
func BenchmarkJournalRecord(b *testing.B) {
	sb := NewHub(6).NewStepBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.PMISample(i, 0.012, 0.8, int64(i))
		sb.Publish()
	}
}

// BenchmarkStepBatchPublish costs one monitor step's telemetry —
// histogram sample, verdict, transition — folded into a StepBatch and
// published in batches of 64, the phased worker's shape.
func BenchmarkStepBatchPublish(b *testing.B) {
	h := NewHub(6)
	sb := h.NewStepBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Fold(i, float64(i%7)*0.006, i%6+1, (i/2)%6+1, i%6+1, (i/2)%6+1, int64(i))
		if i%64 == 63 {
			sb.Publish()
		}
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	h := NewHub(6)
	for i := 0; i < 1000; i++ {
		h.Steps.Inc()
		h.MemPerUop.Observe(0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Registry.Snapshot()
		if len(s.Counters) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	h := NewHub(6)
	h.Steps.Add(123)
	h.MemPerUop.Observe(0.01)
	s := h.Registry.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WritePrometheus(discard{}, s); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
