package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"phasemon/internal/phase"
)

func sampleLog() *Log {
	l := &Log{}
	l.Append(Record{
		Index: 0, StartS: 0, DurS: 0.1, Uops: 100e6, Instructions: 90e6,
		MemTransactions: 1e6, Cycles: 1.5e8, MemPerUop: 0.01, UPC: 0.67,
		Actual: 3, Predicted: phase.None, Setting: 0, FreqHz: 1.5e9,
		PowerW: 9.5, EnergyJ: 0.95,
	})
	l.Append(Record{
		Index: 1, StartS: 0.1, DurS: 0.12, Uops: 100e6, Instructions: 91e6,
		MemTransactions: 3.2e6, Cycles: 1.4e8, MemPerUop: 0.032, UPC: 0.7,
		Actual: 6, Predicted: 3, Setting: 5, FreqHz: 600e6,
		PowerW: 2.1, EnergyJ: 0.252,
	})
	return l
}

func TestLogAccessors(t *testing.T) {
	l := sampleLog()
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.Records(); len(got) != 2 || got[1].Actual != 6 {
		t.Errorf("Records = %+v", got)
	}
}

func TestRecordBIPS(t *testing.T) {
	r := Record{Instructions: 90e6, DurS: 0.1}
	if got := r.BIPS(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("BIPS = %v, want 0.9", got)
	}
	if (Record{}).BIPS() != 0 {
		t.Error("zero-duration BIPS should be 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), l.Len())
	}
	for i, r := range l.Records() {
		if got.Records()[i] != r {
			t.Errorf("record %d: %+v != %+v", i, got.Records()[i], r)
		}
	}
}

func TestCSVHeaderPresent(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, col := range []string{"mem_per_uop", "actual_phase", "predicted_phase", "power_w", "bips"} {
		if !strings.Contains(first, col) {
			t.Errorf("header missing %q: %s", col, first)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"only,two\n",
		// Right-looking header but a malformed numeric field.
		func() string {
			var buf bytes.Buffer
			if err := sampleLog().WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return strings.Replace(buf.String(), "0.032", "not-a-number", 1)
		}(),
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEmptyLogWritesHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Log{}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Errorf("expected header only, got %d lines", len(lines))
	}
	l, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Errorf("empty round trip Len = %d", l.Len())
	}
}
