package main

import (
	"strings"
	"testing"
)

func TestTailIndexRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.99, -1},
		{1, 0.99, 0},
		{5, 0.99, 2},        // too few for any tail: the median
		{20, 0.99, 10},      // even count: the upper middle, never below the median
		{21, 0.99, 10},      // exactly ten beyond index 10
		{100, 0.99, 89},     // p99 would leave one beyond; p90 leaves ten
		{1000, 0.99, 989},   // p99 has ten beyond it
		{10000, 0.99, 9899}, // plenty: the plain p99
		{10000, 0.5, 5000},  // the upper middle again
	}
	for _, c := range cases {
		if got := tailIndex(c.n, c.p); got != c.want {
			t.Errorf("tailIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
		if i := tailIndex(c.n, c.p); c.n > 2*minBeyond && c.n-1-i < minBeyond {
			t.Errorf("tailIndex(%d, %v) leaves %d beyond", c.n, c.p, c.n-1-i)
		}
	}
}

func TestTailReportsPercentileUsed(t *testing.T) {
	vals := make([]uint32, 100)
	for i := range vals {
		vals[i] = uint32(i + 1)
	}
	v, used := tail(vals, 0.99)
	if v != 90 || used != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, used)
	}
	if m := median(vals); m != 50.5 {
		t.Fatalf("median of 1..100 = %v", m)
	}
}

func TestMetricNames(t *testing.T) {
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer()...) {
		if !validName(s.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]", s.Name)
		}
	}
	seen := map[string]bool{}
	for _, s := range perLayer() {
		if seen[s.Name] {
			t.Errorf("per-layer metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, bad := range []string{"", "_lead", "has space", "a/b", "x" + strings.Repeat("y", 64), "µs"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"setup_s", "core.step_ns.gpht_8_128", "9lives", "a-b.c_d"} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
}

func TestFillRejectsMissingAndNonFinite(t *testing.T) {
	specs := []metricSpec{{"a", "s"}, {"b", "ns"}}
	if _, err := fill(specs, map[string]float64{"a": 1}); err == nil {
		t.Error("fill accepted a missing metric")
	}
	if _, err := fill(specs, map[string]float64{"a": 1, "b": 0 / zero()}); err == nil {
		t.Error("fill accepted NaN")
	}
	m, err := fill(specs, map[string]float64{"a": 1, "b": 2})
	if err != nil || m["b"] != (metric{2, "ns"}) {
		t.Fatalf("fill = %v, %v", m, err)
	}
}

func zero() float64 { return 0 }

func TestParsePromHistogram(t *testing.T) {
	text := `# TYPE x_seconds histogram
x_seconds_bucket{le="0.001"} 10
x_seconds_bucket{le="0.002"} 30
x_seconds_bucket{le="+Inf"} 40
x_seconds_sum 0.07
x_seconds_count 40
# TYPE y_total counter
y_total 7
`
	sc, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if sc.values["y_total"] != 7 {
		t.Errorf("y_total = %v", sc.values["y_total"])
	}
	h := sc.hists["x_seconds"]
	if h == nil || h.count != 40 || h.sum != 0.07 {
		t.Fatalf("x_seconds = %+v", h)
	}
	// Rank 20 of 40 lies halfway through the (0.001, 0.002] bucket.
	if q := h.quantile(0.5); q < 0.00149 || q > 0.00151 {
		t.Errorf("p50 = %v, want 0.0015", q)
	}
	// Rank 39.6 lands in +Inf: the last finite bound.
	if q := h.quantile(0.99); q != 0.002 {
		t.Errorf("p99 = %v, want 0.002", q)
	}
}
