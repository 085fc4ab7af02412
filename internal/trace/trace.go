// Package trace records per-interval execution logs — the simulated
// counterpart of the paper's kernel log plus the logging machine's
// power record — and exports them for analysis and plotting.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"phasemon/internal/phase"
)

// Record captures everything observed about one sampling interval.
type Record struct {
	// Index is the interval's ordinal within the run, starting at 0.
	Index int
	// StartS and DurS place the interval in simulated time (seconds).
	StartS float64
	DurS   float64
	// Uops, Instructions and MemTransactions are the counter deltas.
	Uops            float64
	Instructions    float64
	MemTransactions float64
	// Cycles is the TSC delta over the interval.
	Cycles float64
	// MemPerUop and UPC are the derived metrics.
	MemPerUop float64
	UPC       float64
	// Actual is the phase the interval was classified into; Predicted
	// is what the predictor had forecast for it (None for the first
	// interval).
	Actual    phase.ID
	Predicted phase.ID
	// Setting is the DVFS setting the interval ran at, and FreqHz its
	// frequency.
	Setting int
	FreqHz  float64
	// PowerW is the interval's average power, EnergyJ its energy.
	PowerW  float64
	EnergyJ float64
}

// BIPS returns the interval's billions of instructions per second.
func (r Record) BIPS() float64 {
	if r.DurS <= 0 {
		return 0
	}
	return r.Instructions / r.DurS / 1e9
}

// Log is an append-only sequence of interval records.
type Log struct {
	records []Record
}

// NewLogWithCap returns an empty log whose backing array holds n
// records without growing — the grow-once path for builders that know
// the record count up front (ToTrace, CSV import, waveform reduction).
func NewLogWithCap(n int) *Log {
	if n <= 0 {
		return &Log{}
	}
	return &Log{records: make([]Record, 0, n)}
}

// Append adds a record.
func (l *Log) Append(r Record) { l.records = append(l.records, r) }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.records) }

// Records returns the backing slice for read-only iteration. Callers
// must not modify it.
//
//lint:unusedexport the read side tests use to check ToTrace and WriteCSV output
func (l *Log) Records() []Record { return l.records }

// csvHeader lists the exported columns, in order.
var csvHeader = []string{
	"index", "start_s", "dur_s", "uops", "instructions", "mem_tx",
	"cycles", "mem_per_uop", "upc", "actual_phase", "predicted_phase",
	"setting", "freq_hz", "power_w", "energy_j", "bips",
}

// WriteCSV exports the log with one row per interval.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for _, r := range l.records {
		row := []string{
			strconv.Itoa(r.Index),
			fmtF(r.StartS), fmtF(r.DurS),
			fmtF(r.Uops), fmtF(r.Instructions), fmtF(r.MemTransactions),
			fmtF(r.Cycles), fmtF(r.MemPerUop), fmtF(r.UPC),
			strconv.Itoa(int(r.Actual)), strconv.Itoa(int(r.Predicted)),
			strconv.Itoa(r.Setting), fmtF(r.FreqHz),
			fmtF(r.PowerW), fmtF(r.EnergyJ), fmtF(r.BIPS()),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", r.Index, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	return nil
}

// ReadCSV parses a log previously written by WriteCSV.
//
//lint:unusedexport reference oracle: tests read WriteCSV output back with it
func ReadCSV(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	l := NewLogWithCap(len(rows) - 1)
	for i, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		l.Append(rec)
	}
	return l, nil
}

func parseRow(row []string) (Record, error) {
	if len(row) != len(csvHeader) {
		return Record{}, fmt.Errorf("has %d columns, want %d", len(row), len(csvHeader))
	}
	var r Record
	var err error
	geti := func(s string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		return v
	}
	getf := func(s string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		return v
	}
	r.Index = geti(row[0])
	r.StartS = getf(row[1])
	r.DurS = getf(row[2])
	r.Uops = getf(row[3])
	r.Instructions = getf(row[4])
	r.MemTransactions = getf(row[5])
	r.Cycles = getf(row[6])
	r.MemPerUop = getf(row[7])
	r.UPC = getf(row[8])
	r.Actual = phase.ID(geti(row[9]))
	r.Predicted = phase.ID(geti(row[10]))
	r.Setting = geti(row[11])
	r.FreqHz = getf(row[12])
	r.PowerW = getf(row[13])
	r.EnergyJ = getf(row[14])
	// Column 15 (bips) is derived; ignore on read.
	return r, err
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
