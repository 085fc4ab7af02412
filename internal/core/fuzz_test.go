package core

import (
	"testing"

	"phasemon/internal/phase"
)

func FuzzGPHTNeverProducesInvalidState(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := GPHTConfig{GPHRDepth: 4, PHTEntries: 8, NumPhases: 6}
		g := MustNewGPHT(cfg)
		checkTag := func(when string) {
			t.Helper()
			if g.tag != g.packTag() {
				t.Fatalf("%s: incremental tag %#x, packTag %#x (gphr %v)", when, g.tag, g.packTag(), g.gphr)
			}
		}
		checkTag("new")
		for i, b := range data {
			// Deliberately include invalid IDs.
			id := phase.ID(int(b) - 3)
			got := g.Observe(Observation{Phase: id})
			if !got.Valid(6) {
				t.Fatalf("Observe(%v) predicted invalid %v", id, got)
			}
			checkTag("Observe")
			if i == len(data)/2 {
				// Restore recomputes the tag from the snapshot's GPHR
				// bytes: a fresh table resumes with the same pattern.
				snap := g.Snapshot(nil)
				g = MustNewGPHT(cfg)
				if err := g.Restore(snap); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				checkTag("Restore")
			}
			if u := g.Utilization(); u < 0 || u > 1 {
				t.Fatalf("utilization %v out of range", u)
			}
			checkGPHTRecency(t, g)
			if got, want := g.victim(), victimScan(g); got != want {
				t.Fatalf("victim %d, scan picks %d", got, want)
			}
		}
		if g.hits+g.misses != uint64(len(data)) {
			t.Fatalf("hit/miss accounting lost samples")
		}
		g.Reset()
		checkTag("Reset")
	})
}

func FuzzPredictorsAgreeOnValidity(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tab := phase.Default()
		preds, err := PaperPredictors(tab)
		if err != nil {
			t.Fatal(err)
		}
		dur, err := NewDurationPredictor(6, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, dur)
		for _, p := range preds {
			p.Reset()
			for _, b := range data {
				id := phase.ID(1 + int(b)%6)
				o := Observation{
					Sample: phase.Sample{MemPerUop: midpoint(tab, id)},
					Phase:  id,
				}
				if got := p.Observe(o); !got.Valid(6) {
					t.Fatalf("%s predicted invalid %v", p.Name(), got)
				}
			}
		}
	})
}

// FuzzWindowMajority checks the incremental window vote against the
// full-rescan reference on arbitrary streams: window sizes 1–200,
// flush thresholds 0–0.015, phase IDs spanning zero, negatives, >15
// and >255, with Reset and snapshot/restore interleaved. Each op is
// two bytes: a selector and a value.
func FuzzWindowMajority(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{2, 1, 2, 1, 2, 2, 2, 5, 2, 5, 1, 0, 2, 5})
	f.Add(uint8(127), uint8(2), []byte{0x42, 7, 0x82, 9, 0xC2, 3, 0x12, 255, 0x02, 0, 0x40, 0})
	f.Add(uint8(0), uint8(0), []byte{0x23, 1, 0x33, 1, 0x03, 1})
	f.Fuzz(func(t *testing.T, size, thr uint8, data []byte) {
		ops := make([]windowOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			sel, v := data[i], data[i+1]
			switch sel & 0x0F {
			case 0:
				ops = append(ops, windowOp{kind: opReset})
			case 1:
				ops = append(ops, windowOp{kind: opRestore})
			default:
				var id phase.ID
				switch sel >> 6 {
				case 0:
					id = phase.ID(v % 8)
				case 1:
					id = phase.ID(int8(v))
				case 2:
					id = phase.ID(int(v) + 200)
				default:
					id = phase.ID(-1000 * int(v))
				}
				mem := float64(sel>>4&3) * 0.004
				ops = append(ops, windowOp{obs: Observation{Sample: phase.Sample{MemPerUop: mem}, Phase: id}})
			}
		}
		checkWindowsAgainstRescan(t, 1+int(size)%200, float64(thr%4)*0.005, ops)
	})
}
