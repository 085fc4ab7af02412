// Package cpusim provides an analytic timing model of an out-of-order
// processor attached to a fixed-latency memory system, standing in for
// the paper's Pentium-M hardware.
//
// The model works at the granularity the phase framework observes:
// execution intervals of a fixed number of retired micro-ops. For an
// interval with workload-intrinsic properties (core UPC u0, memory bus
// transactions per uop m), execution time at core frequency f is
//
//	T(f) = Uops/(u0*f) + Uops*m*Lmem/MLP
//
// The first term is compute time, which scales inversely with
// frequency; the second is memory time, which is wall-clock-bound and
// does not scale. This single equation reproduces the two facts the
// paper's Section 4 establishes experimentally with the IPCxMEM suite:
//
//   - Mem/Uop, being a pure workload property counted by the PMCs, is
//     invariant across DVFS settings (Figure 7, bottom), and
//   - observed UPC = 1/(1/u0 + m*Lmem*f/MLP) rises as frequency drops,
//     strongly for memory-bound code and not at all for m = 0
//     (Figure 7, top).
//
// It also yields the CPU-slack effect that makes DVFS profitable:
// memory-bound intervals dilate very little when slowed down.
package cpusim

import (
	"errors"
	"fmt"
	"math"
)

// Work describes the demand of one execution interval, as produced by
// a workload generator. Its fields are intrinsic workload properties,
// independent of the frequency the interval will run at.
type Work struct {
	// Uops is the number of micro-ops retired in the interval. The
	// PMI-driven framework uses fixed-uop intervals (100M in the
	// paper), so this is typically the sampling granularity.
	Uops float64
	// Instructions is the number of architectural instructions retired.
	// If zero, it defaults to Uops (a uop/instruction ratio of 1, the
	// paper's common lowest observed concurrency).
	Instructions float64
	// MemPerUop is memory bus transactions per retired uop — the
	// phase-defining metric.
	MemPerUop float64
	// CoreUPC is the uops-per-cycle the core would sustain if memory
	// were infinitely fast; it captures ILP and core-boundedness.
	CoreUPC float64
	// MLP is the effective memory-level parallelism: how many
	// outstanding misses overlap on average. If zero, it defaults to 1
	// (fully serialized misses). Values below 1 are permitted and
	// model queueing/bank-conflict delays beyond the base latency.
	MLP float64
}

// ErrBadWork reports an invalid interval description.
var ErrBadWork = errors.New("cpusim: invalid work interval")

// Validate checks the interval description for physical plausibility.
// Each field is one range comparison; NaN fails every comparison, so
// it is rejected with the infinities.
func (w Work) Validate() error {
	switch {
	case !(w.Uops > 0 && w.Uops <= math.MaxFloat64):
		return fmt.Errorf("%w: uops %v", ErrBadWork, w.Uops)
	case !(w.Instructions >= 0 && w.Instructions <= math.MaxFloat64):
		return fmt.Errorf("%w: instructions %v", ErrBadWork, w.Instructions)
	case !(w.MemPerUop >= 0 && w.MemPerUop <= math.MaxFloat64):
		return fmt.Errorf("%w: mem/uop %v", ErrBadWork, w.MemPerUop)
	case !(w.CoreUPC > 0 && w.CoreUPC <= math.MaxFloat64):
		return fmt.Errorf("%w: core UPC %v", ErrBadWork, w.CoreUPC)
	case !(w.MLP >= 0 && w.MLP <= math.MaxFloat64):
		return fmt.Errorf("%w: MLP %v", ErrBadWork, w.MLP)
	}
	return nil
}

// Result reports the observable outcome of executing a Work interval
// at a specific frequency — exactly the quantities the platform's
// performance counters and time-stamp counter expose.
type Result struct {
	// Time is the wall-clock duration of the interval in seconds.
	Time float64
	// Cycles is the number of core clock cycles elapsed (the TSC
	// delta at the interval's frequency).
	Cycles float64
	// Uops and Instructions echo the retired counts.
	Uops         float64
	Instructions float64
	// MemTransactions is the BUS_TRAN_MEM count for the interval.
	MemTransactions float64
	// UPC is the observed uops per cycle (frequency-dependent).
	UPC float64
	// MemPerUop is the observed phase metric (frequency-invariant).
	MemPerUop float64
	// ComputeTime and MemTime decompose Time into the
	// frequency-scaled and wall-clock-bound components.
	ComputeTime float64
	MemTime     float64
	// FrequencyHz is the frequency the interval ran at.
	FrequencyHz float64
}

// Config holds the platform parameters of the timing model.
type Config struct {
	// MemLatencyS is the effective per-transaction memory stall
	// latency in seconds (DRAM access plus bus, as seen by a blocked
	// core). 100 ns reproduces the up-to-~80% UPC shift across the
	// Pentium-M frequency range reported in the paper's Figure 7.
	MemLatencyS float64
}

// DefaultConfig returns the calibrated platform parameters.
func DefaultConfig() Config {
	return Config{MemLatencyS: 100e-9}
}

// Model is an immutable timing model instance.
type Model struct {
	cfg Config
}

// New builds a model; a zero MemLatencyS falls back to the default.
func New(cfg Config) *Model {
	if cfg.MemLatencyS <= 0 || math.IsNaN(cfg.MemLatencyS) || math.IsInf(cfg.MemLatencyS, 0) {
		cfg.MemLatencyS = DefaultConfig().MemLatencyS
	}
	return &Model{cfg: cfg}
}

// Execute runs one interval at the given core frequency and returns
// the observable result.
func (m *Model) Execute(w Work, freqHz float64) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if !(freqHz > 0) || math.IsInf(freqHz, 0) {
		return Result{}, fmt.Errorf("cpusim: invalid frequency %v", freqHz)
	}
	return m.ExecuteValid(w, freqHz), nil
}

// ExecuteValid is Execute without the input checks, for a caller that
// has already made them: w passes Validate and freqHz is positive and
// finite. It returns exactly Execute's result, built from Interval.
func (m *Model) ExecuteValid(w Work, freqHz float64) Result {
	total, computeTime, memTime, instructions, memTx := m.Interval(&w, w.Uops, freqHz)
	cycles := total * freqHz
	return Result{
		Time:            total,
		Cycles:          cycles,
		Uops:            w.Uops,
		Instructions:    instructions,
		MemTransactions: memTx,
		UPC:             w.Uops / cycles,
		MemPerUop:       w.MemPerUop,
		ComputeTime:     computeTime,
		MemTime:         memTime,
		FrequencyHz:     freqHz,
	}
}

// Interval evaluates the timing equation for the first uops micro-ops
// of w at freqHz, with w's instructions scaled alike and its defaults
// applied (instructions default to the uops, MLP to 1). It returns the
// interval's time and its compute and memory terms, the instructions
// retired and the memory transactions issued. It is the one place the
// equation is evaluated, in two halves: Stall, which does not depend on
// the frequency, and Time, which does. ExecuteValid builds its Result
// from it, machine runs every chunk through both halves, and a machine
// table evaluates Stall once per interval and Time per replayed
// setting. It takes w by pointer and returns scalars, so a
// per-interval loop copies no struct. It makes no checks: w must pass
// Validate, uops lie in (0, w.Uops] and freqHz be positive and finite.
func (m *Model) Interval(w *Work, uops, freqHz float64) (total, computeTime, memTime, instructions, memTx float64) {
	memTime, instructions, memTx = m.Stall(w, uops)
	total, computeTime = Time(w, uops, memTime, freqHz)
	return total, computeTime, memTime, instructions, memTx
}

// Stall is the frequency-invariant half of Interval: the memory stall
// time of the first uops micro-ops of w, the instructions they retire
// (Retired) and the memory transactions they issue. A machine table
// evaluates it once per interval for every setting it replays.
func (m *Model) Stall(w *Work, uops float64) (memTime, instructions, memTx float64) {
	mlp := w.MLP
	if mlp == 0 {
		mlp = 1
	}
	memTx = w.MemPerUop * uops
	return memTx * m.cfg.MemLatencyS / mlp, w.Retired(uops), memTx
}

// Time is the frequency-dependent half of Interval: the time the first
// uops micro-ops of w take at freqHz, and its compute term, given their
// memory stall time memTime from Stall.
func Time(w *Work, uops, memTime, freqHz float64) (total, computeTime float64) {
	computeTime = uops / (w.CoreUPC * freqHz)
	return computeTime + memTime, computeTime
}

// Retired returns the instructions the first uops micro-ops of w
// retire: w's instructions scaled alike, or the uops themselves when w
// leaves its instructions zero.
func (w *Work) Retired(uops float64) float64 {
	instructions := w.Instructions * (uops / w.Uops)
	if instructions == 0 {
		instructions = uops
	}
	return instructions
}

// ObservedUPC returns the UPC the counters would report for code with
// the given intrinsic properties at frequency f, without constructing
// a full interval.
func (m *Model) ObservedUPC(memPerUop, coreUPC, mlp, f float64) float64 {
	if mlp <= 0 {
		mlp = 1
	}
	// float64 rounds the memory term before the add, so no architecture
	// fuses the two.
	return 1 / (1/coreUPC + float64(memPerUop*m.cfg.MemLatencyS*f/mlp))
}

// SlowdownMLP predicts T(f)/T(fmax) for code with the given Mem/Uop
// rate, core UPC and memory-level parallelism; at a fixed MLP it is a
// dvfs.SlowdownModel, which the conservative phase-definition
// derivation of the paper's Section 6.3 uses in place of IPCxMEM
// measurements. Higher MLP shrinks the memory (frequency-insensitive)
// share of execution time, so a bound derived at a pessimistic (high)
// MLP holds for all workloads at or below it — which is how the
// conservative phase definitions of Section 6.3 stay safe for
// prefetch-friendly codes.
func (m *Model) SlowdownMLP(memPerUop, coreUPC, mlp, f, fmax float64) float64 {
	w := Work{Uops: 1e6, MemPerUop: memPerUop, CoreUPC: coreUPC, MLP: mlp}
	at, err1 := m.Execute(w, f)
	ref, err2 := m.Execute(w, fmax)
	if err1 != nil || err2 != nil || ref.Time <= 0 {
		return math.Inf(1)
	}
	return at.Time / ref.Time
}

// memBoundedFraction is the heuristic fraction of cycle budget that
// the memory component occupies at the reference frequency for an
// IPCxMEM grid work with the given Mem/Uop rate. It is calibrated so
// the most memory-bound grid configuration (Mem/Uop 0.0475) shows the
// ~80% UPC shift across the Pentium-M frequency range the paper
// reports, while CPU-bound configurations show none.
func memBoundedFraction(memPerUop float64) float64 {
	if memPerUop <= 0 {
		return 0
	}
	// float64 rounds the product before the add, so no architecture
	// fuses the two.
	beta := 0.08 + float64(memPerUop*15)
	if beta > 0.74 {
		beta = 0.74
	}
	return beta
}

// GridWork constructs an IPCxMEM-suite interval that observes exactly
// targetUPC and memPerUop when run at refFreq. The suite's real
// counterpart tunes loop bodies of arithmetic and pointer-chasing
// code; here the same effect is achieved by solving for the intrinsic
// core UPC and the memory-level parallelism that realize the target,
// splitting the cycle budget between compute and memory according to
// memory intensity (so frequency-shift behavior matches the paper's
// Figure 7: no shift for Mem/Uop 0, up to ~80% for the most
// memory-bound corner).
func (m *Model) GridWork(targetUPC, memPerUop, refFreq, uops float64) (Work, error) {
	if !(targetUPC > 0) || math.IsInf(targetUPC, 0) {
		return Work{}, fmt.Errorf("cpusim: target UPC %v must be positive", targetUPC)
	}
	if !(memPerUop >= 0) || math.IsInf(memPerUop, 0) {
		return Work{}, fmt.Errorf("cpusim: invalid mem/uop %v", memPerUop)
	}
	if !(refFreq > 0) || math.IsInf(refFreq, 0) {
		return Work{}, fmt.Errorf("cpusim: invalid reference frequency %v", refFreq)
	}
	if !(uops > 0) {
		uops = 100e6
	}
	beta := memBoundedFraction(memPerUop)
	if beta == 0 {
		return Work{Uops: uops, MemPerUop: memPerUop, CoreUPC: targetUPC, MLP: 1}, nil
	}
	// Total cycles/uop at refFreq must equal 1/targetUPC, with beta of
	// it in memory: mem cycles/uop = memPerUop*L*refFreq/MLP = beta/targetUPC.
	coreUPC := targetUPC / (1 - beta)
	mlp := memPerUop * m.cfg.MemLatencyS * refFreq * targetUPC / beta
	return Work{Uops: uops, MemPerUop: memPerUop, CoreUPC: coreUPC, MLP: mlp}, nil
}
