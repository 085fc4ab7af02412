package main

import (
	"fmt"
	"time"

	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
)

// Workload shapes of the serving workloads.
const (
	streamNodes  = 128  // 64 sessions per connection
	streamLength = 4096 // samples per trace replay
	streamBatch  = 64   // phaseclient BatchSize
	tickNodes    = 256
	tickPeriod   = 20 * time.Millisecond // each node's PMI period: 12.8k samples/s in all
)

// streamWorkload is closed-loop batched serving: 128 sessions over two
// connections, each keeping 64 samples outstanding, so each connection
// has 4096 in flight, past phased's 32 KiB (1170-reply) coalescing
// threshold.
func streamWorkload(e env) (outcome, error) {
	o := serveOpts{bin: e.bin, nodes: streamNodes, batch: streamBatch}
	return serving(e, o, func(time.Duration) int { return streamLength })
}

// tickWorkload is open-loop serving, one frame per sample: 256 nodes,
// each due every 20 ms, far below what stream sustains.
func tickWorkload(e env) (outcome, error) {
	o := serveOpts{bin: e.bin, nodes: tickNodes, period: tickPeriod}
	return serving(e, o, func(d time.Duration) int { return int((d + tickPeriod - 1) / tickPeriod) })
}

// serving prepares the nodes' traces and their expected predictions,
// then measures. In trace mode it measures half the time untraced and
// half traced, then replays the recorded inputs through the layers.
func serving(e env, o serveOpts, length func(time.Duration) int) (outcome, error) {
	out := outcome{layers: newLayers()}
	measured := e.seconds
	if e.trace {
		measured /= 2
	}
	hub := telemetry.NewHub(6)
	traces, err := prepareTraces(e.seed, o.nodes, length(measured), wcache.New(wcache.Config{Telemetry: hub}))
	if err != nil {
		return out, err
	}
	o.seconds = measured
	r, err := measureServe(o, traces)
	if err != nil {
		return out, err
	}
	out.e2e, out.attempted, out.failed = serveE2E(r), r.sent, r.failed
	out.notes = append(out.notes, windowNote(r))
	if !e.trace {
		return out, nil
	}

	o.traced = true
	rt, err := measureServe(o, traces)
	if err != nil {
		return out, err
	}
	out.traced = serveE2E(rt)
	out.attempted += rt.sent
	out.failed += rt.failed
	l := out.layers
	k := 1000 / float64(rt.answered)
	l["phased.syscr_per_ksample"] = float64(rt.srv1.syscr-rt.srv0.syscr) * k
	l["phased.syscw_per_ksample"] = float64(rt.srv1.syscw-rt.srv0.syscw) * k
	if h := rt.metrics.hists["phasemon_phased_flush_frames"]; h != nil && h.count > 0 {
		l["phased.preds_per_flush"] = h.sum / h.count
	}
	if h := rt.metrics.hists["phasemon_phased_flush_seconds"]; h != nil {
		l["phased.flush_wait_p50_us"] = h.quantile(0.5) * 1e6
	}
	if h := rt.metrics.hists["phasemon_phased_frame_seconds"]; h != nil {
		l["phased.frame_p99_us"] = h.quantile(0.99) * 1e6
	}
	l["phased.shed_samples"] = rt.metrics.values["phasemon_phased_dropped_samples_total"]
	l["phaseclient.send_ns"] = rt.send.meanNs()
	l["phaseclient.client_cpu_ns_per_sample"] = float64(rt.cliCPU) / float64(rt.answered)
	if len(rt.late) > 0 {
		l["gen.late_p50_us"] = median(rt.late) / 1e3
		p99, _ := tail(rt.late, 0.99)
		l["gen.late_p99_us"] = p99 / 1e3
	}
	hits, misses := float64(hub.WorkloadCacheHits.Value()), float64(hub.WorkloadCacheMisses.Value())
	l["wcache.hit_ratio"] = hits / (hits + misses)
	e.tr.log("phaseclient.send").merge(&rt.send)

	in := recordedInputs(traces)
	if l["wire.decode_ns_per_sample"], l["wire.encode_ns_per_pred"], err = replayWire(e.tr, in, o.batch > 1); err != nil {
		return out, err
	}
	if l["agg.ingest_ns"], err = replayIngest(e.tr, in, int64(out.traced["latency_p50_us"]*1e3), int64(rt.wall)); err != nil {
		return out, err
	}
	if err := replayCommon(e.tr, l, e.seed, traces); err != nil {
		return out, err
	}
	layerSum := l["wire.decode_ns_per_sample"] + l["wire.encode_ns_per_pred"] +
		l["core.step_ns."+servingSpec] + l["agg.ingest_ns"]
	l["phased.residual_ns_per_sample"] = out.traced["cpu_ns_per_sample"] - layerSum
	return out, nil
}

// serveE2E derives the end-to-end metrics of one serving measurement.
// The latency percentiles are medians over the measurement's windows:
// a burst of interference from outside moves a few windows, not the
// run.
func serveE2E(r serveResult) map[string]float64 {
	var p50, p99 []float64
	for _, l := range r.lat {
		if len(l) > 0 {
			v, _ := tail(l, 0.99)
			p50 = append(p50, median(l)/1e3)
			p99 = append(p99, v/1e3)
		}
	}
	return map[string]float64{
		"setup_s":           median(sortedCopy(r.setup)),
		"throughput_sps":    float64(r.inWindows) / r.wall.Seconds(),
		"latency_p50_us":    median(sortedCopy(p50)),
		"latency_p99_us":    median(sortedCopy(p99)),
		"cpu_ns_per_sample": float64(r.srv1.cpu-r.srv0.cpu) / float64(r.answered),
		"run_s":             median(sortedCopy(r.runs)),
		"rss_mb":            float64(r.srv1.hwmKB) / 1024,
	}
}

// windowNote describes how the per-window latency tails spread.
func windowNote(r serveResult) string {
	var p99 []float64
	for _, l := range r.lat {
		if len(l) > 0 {
			v, _ := tail(l, 0.99)
			p99 = append(p99, v/1e3)
		}
	}
	if len(p99) == 0 {
		return "no latency windows"
	}
	p99 = sortedCopy(p99)
	return fmt.Sprintf("%d windows; latency_p99_us per window: min %.1f, median %.1f, max %.1f",
		len(p99), p99[0], median(p99), p99[len(p99)-1])
}
