package phase

import (
	"math"
	"sort"
	"testing"
)

func FuzzTableClassify(f *testing.F) {
	f.Add(0.0)
	f.Add(0.005)
	f.Add(0.031)
	f.Add(-1.0)
	f.Add(math.Inf(1))
	f.Add(math.NaN())
	// Within ApproxEqual tolerance below a bound: the higher phase.
	f.Add(0.009999999999999998)
	f.Add(0.005 * (1 - 5e-13))
	tab := Default()
	f.Fuzz(func(t *testing.T, mem float64) {
		id := tab.Classify(Sample{MemPerUop: mem})
		if !id.Valid(tab.NumPhases()) {
			t.Fatalf("Classify(%v) = %v, invalid", mem, id)
		}
		// For well-formed inputs the result's nominal range must
		// contain the sample, except that a sample within ApproxEqual
		// tolerance below lo belongs to the phase above the bound.
		if mem >= 0 && !math.IsNaN(mem) && !math.IsInf(mem, 0) {
			lo, hi := tab.Range(id)
			if mem >= hi || (mem < lo && !ApproxEqual(mem, lo)) {
				t.Fatalf("Classify(%v) = %v but range is [%v, %v)", mem, id, lo, hi)
			}
		}
	})
}

func FuzzUPCTableClassify(f *testing.F) {
	f.Add(0.0)
	f.Add(0.3)
	f.Add(2.5)
	f.Add(math.NaN())
	tab := DefaultUPC()
	f.Fuzz(func(t *testing.T, upc float64) {
		id := tab.Classify(Sample{UPC: upc})
		if !id.Valid(tab.NumPhases()) {
			t.Fatalf("Classify(UPC=%v) = %v, invalid", upc, id)
		}
	})
}

// classifyReference is Table.Classify's rule as first written: binary
// search for the first bound at or above the sample, then step past it
// when the sample is within ApproxEqual tolerance of it. The cut-point
// Classify must agree with it on every input.
func classifyReference(t *Table, s Sample) ID {
	m := s.MemPerUop
	if math.IsNaN(m) || m < 0 {
		return 1
	}
	i := sort.SearchFloat64s(t.bounds, m)
	if i < len(t.bounds) && ApproxEqual(t.bounds[i], m) {
		i++
	}
	return ID(i + 1)
}

// tightTable is a three-bound table starting at lo with bounds gap+1
// ulps apart, or nil when lo is not a valid bound.
func tightTable(lo float64, gap uint32) *Table {
	step := uint64(gap) + 1
	bits := math.Float64bits(lo)
	tab, err := NewTable("tight", []float64{lo, math.Float64frombits(bits + step), math.Float64frombits(bits + 2*step)})
	if err != nil {
		return nil
	}
	return tab
}

// FuzzClassifyMatchesReference checks the cut-point Classify against
// classifyReference on the paper's table and on a table whose bounds
// may sit closer together than the tolerance.
func FuzzClassifyMatchesReference(f *testing.F) {
	def := Default()
	for _, b := range def.Bounds() {
		for _, d := range []int64{0, 1, 2, 100, 4000, 4600, 10000} {
			f.Add(math.Float64frombits(math.Float64bits(b)+uint64(d)), b, uint32(0))
			f.Add(math.Float64frombits(math.Float64bits(b)-uint64(d)), b, uint32(d))
		}
		f.Add(b*(1+2e-12), b, uint32(3000))
		f.Add(b*(1-2e-12), b, uint32(3000))
	}
	// Bounds 1e-13 apart (relative): well inside the tolerance.
	f.Add(0.01*(1-1e-12), 0.01, uint32(580))
	f.Add(0.01*(1+1e-13), 0.01, uint32(580))
	f.Add(math.NaN(), 0.01, uint32(0))
	f.Add(-1.0, 0.01, uint32(0))
	f.Add(math.Inf(1), 0.01, uint32(0))
	f.Fuzz(func(t *testing.T, mem, lo float64, gap uint32) {
		s := Sample{MemPerUop: mem}
		if got, want := def.Classify(s), classifyReference(def, s); got != want {
			t.Fatalf("Default().Classify(%v) = %v, reference %v", mem, got, want)
		}
		if tab := tightTable(lo, gap); tab != nil {
			if got, want := tab.Classify(s), classifyReference(tab, s); got != want {
				t.Fatalf("bounds %v: Classify(%v) = %v, reference %v", tab.Bounds(), mem, got, want)
			}
		}
	})
}

// TestClassifyMatchesReference probes every ulp within ±20000 of each
// bound and each cut point, on the paper's table and on tables whose
// bounds are closer than the tolerance, against classifyReference.
func TestClassifyMatchesReference(t *testing.T) {
	tables := []*Table{Default(), MustNewTable("wide", []float64{1e-300, 1e-3, 1, 1e300})}
	for _, gap := range []uint32{0, 1, 57, 580, 4500, 9000, 20000} {
		tables = append(tables, tightTable(0.01, gap), tightTable(0.005, gap))
	}
	const span = 20000
	for _, tab := range tables {
		for _, centre := range append(tab.Bounds(), tab.cuts...) {
			c := math.Float64bits(centre)
			for d := uint64(0); d <= 2*span; d++ {
				m := math.Float64frombits(c - span + d)
				s := Sample{MemPerUop: m}
				if got, want := tab.Classify(s), classifyReference(tab, s); got != want {
					t.Fatalf("bounds %v: Classify(%v) = %v, reference %v", tab.Bounds(), m, got, want)
				}
			}
		}
	}
}
