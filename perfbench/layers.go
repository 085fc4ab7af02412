package main

import (
	"context"
	"fmt"

	"phasemon/internal/agg"
	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
)

// Replay sizes: enough calls that a span's clock reads vanish, few
// enough that the slowest predictor (fixwindow_128, ~2 µs a step)
// replays in well under a second.
const (
	replayReps    = 3
	replaySamples = 1 << 15
	// replayLength is the trace length the governed-run and synthesis
	// replays use, whatever the workload's own trace length.
	replayLength = 4096
	// flushPreds is phased's default coalescing threshold (32 KiB of
	// prediction records): one server flush encodes this many.
	flushPreds = (32 << 10) / wire.PredictionRecordSize
)

// replayInputs are a run's recorded inputs and replies, concatenated
// across nodes up to replaySamples.
type replayInputs struct {
	samples []wire.Sample
	preds   []wire.Prediction
}

func recordedInputs(traces []nodeTrace) replayInputs {
	var in replayInputs
	np := phase.Default().NumPhases()
	for k, tr := range traces {
		for i, s := range tr.samples {
			if len(in.samples) == replaySamples {
				return in
			}
			s.SessionID = uint64(k + 1)
			w := tr.want[i]
			in.samples = append(in.samples, s)
			in.preds = append(in.preds, wire.Prediction{SessionID: s.SessionID, Seq: s.Seq, Actual: w.actual,
				Next: w.next, Class: uint8(phase.ClassOf(phase.ID(w.next), np)), Setting: w.setting})
		}
	}
	return in
}

// medianOf runs fn replayReps times as spans of layer and returns the
// median span length in ns.
func medianOf(t *tracer, layer string, fn func() error) (float64, error) {
	var ns []int64
	for r := 0; r < replayReps; r++ {
		d, err := t.timed(layer, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", layer, err)
		}
		ns = append(ns, d)
	}
	return median(sortedCopy(ns)), nil
}

// replayWire times decoding the recorded samples as the server reads
// them, and encoding the recorded predictions as it writes them:
// batch frames (DecodeBatch + DecodeSample, AppendBatchPredictions in
// flush-sized runs) when batched, one frame each otherwise.
func replayWire(t *tracer, in replayInputs, batched bool) (decNs, encNs float64, err error) {
	var frames [][]byte
	if batched {
		for i := 0; i < len(in.samples); i += streamBatch {
			f, err := wire.AppendBatchSamples(nil, in.samples[i:min(i+streamBatch, len(in.samples))])
			if err != nil {
				return 0, 0, err
			}
			frames = append(frames, f)
		}
	} else {
		for i := range in.samples {
			frames = append(frames, wire.AppendSample(nil, &in.samples[i]))
		}
	}
	var smp wire.Sample
	dec, err := medianOf(t, "wire.decode", func() error {
		for _, f := range frames {
			kind, n, err := wire.DecodeHeader(f[:wire.HeaderSize])
			if err != nil {
				return err
			}
			payload := f[wire.HeaderSize : wire.HeaderSize+n]
			if kind == wire.KindSample {
				if err := wire.DecodeSample(payload, &smp); err != nil {
					return err
				}
				continue
			}
			_, cnt, recs, err := wire.DecodeBatch(payload)
			if err != nil {
				return err
			}
			for i := 0; i < cnt; i++ {
				if err := wire.DecodeSample(recs[i*wire.SampleRecordSize:(i+1)*wire.SampleRecordSize], &smp); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, 0, wire.MaxFrameSize)
	enc, err := medianOf(t, "wire.encode", func() error {
		if !batched {
			for i := range in.preds {
				buf = wire.AppendPrediction(buf[:0], &in.preds[i])
			}
			return nil
		}
		for i := 0; i < len(in.preds); i += flushPreds {
			var err error
			if buf, err = wire.AppendBatchPredictions(buf[:0], in.preds[i:min(i+flushPreds, len(in.preds))]); err != nil {
				return err
			}
		}
		return nil
	})
	n := float64(len(in.samples))
	return dec / n, enc / n, err
}

// replayStep times Monitor.Step of spec over the recorded samples,
// converted the way the server converts them.
func replayStep(t *tracer, spec string, in replayInputs) (float64, error) {
	obs := make([]phase.Sample, len(in.samples))
	for i, s := range in.samples {
		obs[i] = phase.Sample{MemPerUop: ratio(s.MemTx, s.Uops), UPC: ratio(s.Uops, s.Cycles)}
	}
	ns, err := medianOf(t, "core.step."+spec, func() error {
		pred, err := core.NewPredictorFromSpec(spec, core.SpecEnv{})
		if err != nil {
			return err
		}
		mon, err := core.NewMonitor(phase.Default(), pred)
		if err != nil {
			return err
		}
		for _, o := range obs {
			mon.Step(o)
		}
		return nil
	})
	return ns / float64(len(obs)), err
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayIngest times agg IngestAt over the recorded replies, scored
// the way the server scores them and spread evenly over wallNs.
func replayIngest(t *tracer, in replayInputs, latNs, wallNs int64) (float64, error) {
	type rec struct {
		shard   int
		id      uint64
		class   phase.Class
		setting dvfs.Setting
		outcome agg.Outcome
		at      int64
	}
	a := agg.New(agg.Config{Shards: 2})
	recs := make([]rec, len(in.preds))
	step := wallNs / int64(max(len(recs), 1))
	for i, p := range in.preds {
		out := agg.OutcomeUnscored
		if i > 0 && in.preds[i-1].SessionID == p.SessionID {
			out = agg.OutcomeMiss
			if in.preds[i-1].Next == p.Actual {
				out = agg.OutcomeHit
			}
		}
		recs[i] = rec{a.ShardFor(p.SessionID), p.SessionID, phase.Class(p.Class), dvfs.Setting(p.Setting), out, int64(i) * step}
	}
	ns, err := medianOf(t, "agg.ingest", func() error {
		a := agg.New(agg.Config{Shards: 2})
		for _, r := range recs {
			a.IngestAt(r.shard, r.at, r.id, r.class, r.setting, r.outcome, latNs)
		}
		return nil
	})
	return ns / float64(len(recs)), err
}

// replayGovernor times a managed governor.RunContext of spec on cached
// traces.
func replayGovernor(t *tracer, spec string, traces []*wcache.Trace) (float64, error) {
	pol, err := governor.PolicyFromSpec(spec)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tr := range traces {
		n += tr.Len()
	}
	ns, err := medianOf(t, "governor.run."+spec, func() error {
		for _, tr := range traces {
			if _, err := governor.RunContext(context.Background(), tr.Generator(), pol, governor.Config{}); err != nil {
				return err
			}
		}
		return nil
	})
	return ns / float64(n), err
}

// replaySynth times a cold wcache synthesizing the paper traces.
func replaySynth(t *tracer, seed int64, length int) (float64, error) {
	ns, err := medianOf(t, "wcache.synth", func() error {
		c := wcache.New(wcache.Config{})
		for k := range paperWorkloads {
			p, params, err := nodeParams(seed, k, length)
			if err != nil {
				return err
			}
			c.Get(p, params)
		}
		return nil
	})
	return ns / float64(length*len(paperWorkloads)), err
}

// replayCommon fills the layer metrics every workload reports from its
// recorded inputs: predictor step and governed-run cost per spec, and
// trace synthesis cost.
func replayCommon(t *tracer, layers map[string]float64, seed int64, traces []nodeTrace) error {
	in := recordedInputs(traces)
	cache := wcache.New(wcache.Config{})
	var cached []*wcache.Trace
	for k := range paperWorkloads {
		p, params, err := nodeParams(seed, k, replayLength)
		if err != nil {
			return err
		}
		cached = append(cached, cache.Get(p, params))
	}
	for _, spec := range layerSpecs() {
		ns, err := replayStep(t, spec, in)
		if err != nil {
			return err
		}
		layers["core.step_ns."+spec] = ns
		if ns, err = replayGovernor(t, spec, cached); err != nil {
			return err
		}
		layers["governor.run_ns_per_interval."+spec] = ns
	}
	ns, err := replaySynth(t, seed, replayLength)
	layers["wcache.synth_ns_per_interval"] = ns
	return err
}
