package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the verdict the benchmark prints as the last line of its
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names a metric and fixes its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the user-visible metrics every untraced run reports.
// failed_share is not among them: it is 0 on correct code, so it is
// carried by the result's attempted/failed counts instead.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_sps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_ns_per_sample", "ns"},
	{"run_s", "s"},
	{"rss_mb", "MB"},
}

// gridSpecs is the grid workload's predictor field: the zoo at its
// size extremes. servingSpec is the spec the serving workloads
// negotiate. Per-layer step and governor costs are reported for all of
// them on every workload's recorded inputs.
var (
	servingSpec = "gpht_8_128"
	gridSpecs   = []string{"gpht_8_64", "gpht_8_1024", "fixwindow_8", "fixwindow_128",
		"markov_2", "dtree_4", "linreg_16", "lastvalue"}
	figureNames = []string{"fig3", "fig4", "fig5", "fig11", "fig12", "fig13", "headline"}
)

// layerSpecs returns every spec the per-layer replay covers.
func layerSpecs() []string { return append([]string{servingSpec}, gridSpecs...) }

// perLayer lists the per-layer metrics every traced run reports. A
// layer the workload does not exercise reports 0.
func perLayer() []metricSpec {
	out := []metricSpec{
		{"phased.syscr_per_ksample", "count"},
		{"phased.syscw_per_ksample", "count"},
		{"phased.preds_per_flush", "count"},
		{"phased.flush_wait_p50_us", "us"},
		{"phased.frame_p99_us", "us"},
		{"phased.shed_samples", "count"},
		{"phased.residual_ns_per_sample", "ns"},
		{"wire.decode_ns_per_sample", "ns"},
		{"wire.encode_ns_per_pred", "ns"},
		{"agg.ingest_ns", "ns"},
		{"wcache.synth_ns_per_interval", "ns"},
		{"wcache.hit_ratio", "share"},
		{"phaseclient.send_ns", "ns"},
		{"phaseclient.client_cpu_ns_per_sample", "ns"},
		{"gen.late_p50_us", "us"},
		{"gen.late_p99_us", "us"},
		{"fleet.busy_share", "share"},
	}
	for _, s := range layerSpecs() {
		out = append(out, metricSpec{"core.step_ns." + s, "ns"})
	}
	for _, s := range layerSpecs() {
		out = append(out, metricSpec{"governor.run_ns_per_interval." + s, "ns"})
	}
	for _, f := range figureNames {
		out = append(out, metricSpec{"experiments." + f + "_s", "s"})
	}
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name: a
// letter or digit, then up to 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// fill builds the metrics object for specs from vals, failing on a
// missing value, a bad name or a non-finite number.
func fill(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		if !validName(s.Name) {
			return nil, fmt.Errorf("bad metric name %q", s.Name)
		}
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// writeResult prints r as one JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailIndex applies the percentile rule to n ascending samples: the
// index of the pth percentile (0 < p < 1), lowered until at least
// minBeyond samples lie beyond it, but never below the median. It
// returns -1 for no samples.
func tailIndex(n int, p float64) int {
	if n == 0 {
		return -1
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if lim := n - 1 - minBeyond; i > lim {
		i = lim
	}
	if med := n / 2; i < med {
		i = med // the upper middle: never below the median
	}
	return i
}

// number is what the summaries accept: float seconds or integer
// nanoseconds.
type number interface{ ~float64 | ~uint32 | ~int64 }

// sortedCopy returns the values in ascending order.
func sortedCopy[T number](d []T) []T {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// median of ascending values; 0 when empty.
func median[T number](d []T) float64 {
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return float64(d[n/2])
	default:
		return (float64(d[n/2-1]) + float64(d[n/2])) / 2
	}
}

// tail returns the rule's pth percentile of ascending values and the
// percentile actually used (in percent).
func tail[T number](d []T, p float64) (v, usedPct float64) {
	i := tailIndex(len(d), p)
	if i < 0 {
		return 0, 0
	}
	return float64(d[i]), 100 * float64(i+1) / float64(len(d))
}
