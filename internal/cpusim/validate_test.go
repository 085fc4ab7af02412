package cpusim

import (
	"fmt"
	"math"
	"testing"
)

// referenceValidate is Work.Validate as first written, one IsNaN/IsInf
// test per field, kept verbatim as the oracle for the range-comparison
// form.
func referenceValidate(w Work) error {
	switch {
	case !(w.Uops > 0) || math.IsInf(w.Uops, 0):
		return fmt.Errorf("%w: uops %v", ErrBadWork, w.Uops)
	case w.Instructions < 0 || math.IsNaN(w.Instructions) || math.IsInf(w.Instructions, 0):
		return fmt.Errorf("%w: instructions %v", ErrBadWork, w.Instructions)
	case !(w.MemPerUop >= 0) || math.IsInf(w.MemPerUop, 0):
		return fmt.Errorf("%w: mem/uop %v", ErrBadWork, w.MemPerUop)
	case !(w.CoreUPC > 0) || math.IsInf(w.CoreUPC, 0):
		return fmt.Errorf("%w: core UPC %v", ErrBadWork, w.CoreUPC)
	case w.MLP < 0 || math.IsNaN(w.MLP) || math.IsInf(w.MLP, 0):
		return fmt.Errorf("%w: MLP %v", ErrBadWork, w.MLP)
	}
	return nil
}

// TestValidateMatchesReference crosses every field over the IEEE edge
// values and requires Validate to accept exactly what the reference
// accepts and to reject with the same error, which names the first
// offending field.
func TestValidateMatchesReference(t *testing.T) {
	edges := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64,
	}
	var w Work
	fields := []*float64{&w.Uops, &w.Instructions, &w.MemPerUop, &w.CoreUPC, &w.MLP}
	idx := make([]int, len(fields))
	for {
		for i, f := range fields {
			*f = edges[idx[i]]
		}
		got, want := w.Validate(), referenceValidate(w)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%+v: Validate = %v, reference = %v", w, got, want)
		}
		// Advance the odometer over every field's edge values.
		i := 0
		for ; i < len(idx); i++ {
			if idx[i]++; idx[i] < len(edges) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return
		}
	}
}
