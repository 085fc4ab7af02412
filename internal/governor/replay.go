package governor

import (
	"context"
	"fmt"
	"math"
	"slices"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
	"phasemon/internal/machine"
)

// Replay is a governed run replayed over a machine.Table instead of
// simulated on a machine. Each interval it reads the table's row at
// the current setting, charges the work span, and runs the PMI
// handler's Figure 8 flow — classify, predict, translate, actuate —
// charging the handler span as Run charges it. The result is the one
// RunContext returns over the table's trace, bit for bit, when the run
// has no actuator; the kernel log is kept in compact form (Records),
// the rest of each entry following from the table.
//
// A Replay is advanced by Run, so one replay yields the results of
// runs of several lengths: every policy but the oracle decides from
// the past alone, so its first N intervals are a run of N intervals.
// It is not safe for concurrent use; its table is.
type Replay struct {
	tab    *machine.Table
	policy string
	mon    *core.Monitor
	tr     *dvfs.Translation // nil when the policy does not actuate
	ctrl   *dvfs.Controller
	gran   uint64
	costS  float64
	budget float64
	// whole is set for a policy that reads the future: its run is the
	// whole table, replayed in one step.
	whole bool

	acct       machine.Account
	violations int
	done       int // intervals replayed
	// recs holds the newest replayed intervals, oldest first: at most
	// recordWindow, and at least the newest DefaultLogCapacity once
	// that many have been replayed.
	recs []Record
}

// recordWindow bounds a replay's records. When they fill it the newest
// DefaultLogCapacity — all a run's kernel log keeps — move to the
// front, one record copied per replayed interval on average.
const recordWindow = 2 * kernelsim.DefaultLogCapacity

// Record is one replayed interval in compact form: the UPC the PMI
// handler measured, the setting the interval ran at, its phase, and
// the phase predicted for the next interval. The rest of its kernel-log
// entry follows from the table.
type Record struct {
	UPC               float64
	Setting           uint8 // a dvfs.Setting
	Actual, Predicted uint8 // phase.IDs
}

// NewReplay sets up a replay of pol over tab, configured as RunContext
// configures a run, through the same setup. It refuses, with an error,
// what a table cannot replay: an Actuator (it chooses settings from
// live machine state), a non-zero Config.Machine (the table fixes the
// machine; the translation's ladder must match the table's), Config.Log
// storage (a replay keeps its own records), a granularity other than the
// table's, and more phases or settings than a compact record holds.
// With Config.Telemetry set, the replay counts one governor run; it
// publishes no per-interval events.
//
// recs is the records' storage: the replay appends to recs[:0],
// growing it only when its capacity falls short of the table or of
// recordWindow, so a caller that runs replays one after another can
// hand each the last one's Records. Records aliases it.
func NewReplay(tab *machine.Table, pol Policy, cfg Config, recs []Record) (*Replay, error) {
	m := cfg.Machine
	switch {
	case cfg.Actuator != nil:
		return nil, fmt.Errorf("governor: an actuator reads live machine state, so %s cannot replay over a table", pol.Name())
	case m.CPU != nil || m.Power != nil || m.Ladder != nil || m.TransitionLatencyS != 0 || m.Recorder != nil || m.Thermal != nil:
		return nil, fmt.Errorf("governor: a replay runs on its table's machine, so Config.Machine must be zero")
	case cfg.Log != nil:
		return nil, fmt.Errorf("governor: a replay keeps its own records, so it takes no kernel-log storage")
	}
	cfg, modCfg, err := setup(pol, cfg)
	if err != nil {
		return nil, err
	}
	if !sameLadder(cfg.Machine.Ladder, tab.Ladder()) {
		return nil, fmt.Errorf("governor: translation ladder differs from the table's")
	}
	gran := cfg.GranularityUops
	if gran == 0 {
		gran = kernelsim.DefaultGranularityUops
	}
	if gran != tab.Granularity() {
		return nil, fmt.Errorf("governor: granularity %d differs from the table's %d", gran, tab.Granularity())
	}
	if cfg.Classifier.NumPhases() > math.MaxUint8 || tab.Ladder().Len() > math.MaxUint8+1 {
		return nil, fmt.Errorf("governor: %d phases over %d settings do not fit a replay record", cfg.Classifier.NumPhases(), tab.Ladder().Len())
	}
	cost, budget := kernelsim.HandlerCost(modCfg)
	if cfg.Telemetry != nil {
		cfg.Telemetry.GovernorRuns.Inc()
	}
	_, whole := pol.(oracle)
	return &Replay{
		tab:    tab,
		policy: pol.Name(),
		mon:    modCfg.Monitor,
		tr:     modCfg.Translation,
		ctrl:   tab.NewController(),
		gran:   gran,
		costS:  cost,
		budget: budget,
		whole:  whole,
		recs:   slices.Grow(recs[:0], min(tab.Len(), recordWindow)),
	}, nil
}

// sameLadder reports whether two ladders have the same operating
// points.
func sameLadder(a, b *dvfs.Ladder) bool {
	if a.Len() != b.Len() {
		return false
	}
	for s := range a.Len() {
		if a.Point(dvfs.Setting(s)) != b.Point(dvfs.Setting(s)) {
			return false
		}
	}
	return true
}

// Run replays on to the first n intervals and returns the result
// RunContext returns for a run of exactly those n intervals, with a
// nil Log: Records reads the intervals back. n may not fall below the
// intervals already replayed, nor exceed the table; a policy that
// reads the future replays the whole table in one step, as a prefix of
// its run is not a shorter run. A canceled context stops the replay at
// the next poll point with the context's error, as RunContext does.
func (r *Replay) Run(ctx context.Context, n int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch {
	case n < r.done || n > r.tab.Len():
		return nil, fmt.Errorf("governor: cannot replay %s to %d intervals from %d over a %d-interval table", r.policy, n, r.done, r.tab.Len())
	case r.whole && n != r.tab.Len():
		return nil, fmt.Errorf("governor: %s reads the future, so only its whole %d-interval run replays", r.policy, r.tab.Len())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.replay(ctx, n); err != nil {
		return nil, err
	}
	return &Result{
		Policy:           r.policy,
		Run:              r.acct.Result(uint64(n), r.ctrl.Transitions()),
		Accuracy:         r.mon.Tally(),
		OverheadFraction: r.acct.OverheadFraction(),
		BudgetViolations: r.violations,
	}, nil
}

// replay runs intervals r.done to n-1: the work span at the
// current setting, then the PMI handler — the monitor's step, the
// actuation, and the handler span, charged as the handler cost plus
// the controller's added time in transition, exactly as Run charges
// it (the floats differ from adding the bare transition latency).
//
//lint:hotpath
func (r *Replay) replay(ctx context.Context, n int) error {
	uops := float64(r.gran)
	for i := r.done; i < n; i++ {
		if i%ctxPollStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		set := r.ctrl.Current()
		dur, watts, instructions, sample := r.tab.At(i, set)
		r.acct.Work(dur, watts, instructions, uops)

		actual, next := r.mon.Step(sample)
		pre := r.ctrl.TimeInTransition()
		if r.tr != nil {
			_, _ = r.ctrl.Set(r.tr.Setting(next))
		}
		if r.costS > r.budget {
			r.violations++
		}
		overhead := r.costS
		overhead += r.ctrl.TimeInTransition() - pre
		r.acct.Handler(overhead, r.tab.HandlerWatts(r.ctrl.Current()))
		if len(r.recs) == recordWindow {
			r.recs = r.recs[:copy(r.recs, r.recs[recordWindow-kernelsim.DefaultLogCapacity:])]
		}
		r.recs = append(r.recs, Record{UPC: sample.UPC, Setting: uint8(set), Actual: uint8(actual), Predicted: uint8(next)})
		r.done = i + 1
	}
	return nil
}

// Records returns the newest replayed intervals, oldest first, the
// last of them interval n-1 after Run(ctx, n): every interval of a
// run up to recordWindow long, and at least the newest
// DefaultLogCapacity — all the kernel log of a run of n intervals
// keeps — of a longer one. The slice is valid until the next Run.
func (r *Replay) Records() []Record { return r.recs }
