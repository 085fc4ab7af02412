package governor

import (
	"reflect"
	"strings"
	"testing"

	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/thermal"
)

// prefixCase is one policy setup of the prefix-equivalence test. cfg
// builds a fresh Config per run, since a thermal model carries state.
type prefixCase struct {
	name string
	pol  Policy
	cfg  func(t *testing.T) Config
}

func prefixCases(t *testing.T) []prefixCase {
	t.Helper()
	plain := func(*testing.T) Config { return Config{} }
	spec := func(s string) Policy {
		p, err := PolicyFromSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	throttled := func(t *testing.T) Config {
		th, err := thermal.New(thermal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// A limit the paper workloads reach, so the actuator throttles.
		return Config{
			Actuator: &ThermalThrottle{Translation: tr, LimitC: 40},
			Machine:  machine.Config{Thermal: th},
		}
	}
	return []prefixCase{
		{"baseline", spec("baseline"), plain},
		{"reactive", spec("reactive"), plain},
		{"gpht_8_128", spec("gpht_8_128"), plain},
		{"markov_2", spec("markov_2"), plain},
		{"mon:gpht_8_128", spec("mon:gpht_8_128"), plain},
		{"thermal", Proactive(8, 128), throttled},
	}
}

// TestPrefixMatchesShorterRun pins the prefix contract: the prefix at
// N of a 2N-interval run is, field for field, the result of a run of
// exactly N intervals, and taking it leaves the 2N run's own result
// unchanged.
func TestPrefixMatchesShorterRun(t *testing.T) {
	for _, pc := range prefixCases(t) {
		for _, w := range []string{"applu_in", "gzip_graphic", "swim_in", "mcf_inp"} {
			for _, n := range []int{37, 100, 257, 1000} {
				run := func(intervals int, prefixes []int) *Result {
					t.Helper()
					cfg := pc.cfg(t)
					cfg.Prefixes = prefixes
					r, err := Run(gen(t, w, intervals), pc.pol, cfg)
					if err != nil {
						t.Fatalf("%s %s N=%d: %v", pc.name, w, n, err)
					}
					return r
				}
				long := run(2*n, []int{n})
				if len(long.Prefixes) != 1 {
					t.Fatalf("%s %s N=%d: %d prefixes, want 1", pc.name, w, n, len(long.Prefixes))
				}
				if got, want := long.Prefixes[0], run(n, nil); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s N=%d: prefix differs from a %d-interval run:\n got run %+v acc %+v log %d over %v viol %d\nwant run %+v acc %+v log %d over %v viol %d",
						pc.name, w, n, n,
						got.Run, got.Accuracy, len(got.Log), got.OverheadFraction, got.BudgetViolations,
						want.Run, want.Accuracy, len(want.Log), want.OverheadFraction, want.BudgetViolations)
				}
				long.Prefixes = nil
				if want := run(2*n, nil); !reflect.DeepEqual(long, want) {
					t.Errorf("%s %s N=%d: taking a prefix changed the %d-interval run", pc.name, w, n, 2*n)
				}
			}
		}
	}
}

// TestPrefixesShareTheRunLog checks that several prefixes come back in
// order, each a view of the run's log rather than a copy.
func TestPrefixesShareTheRunLog(t *testing.T) {
	r, err := Run(gen(t, "applu_in", 400), Proactive(8, 128), Config{Prefixes: []int{100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Prefixes) != 2 {
		t.Fatalf("%d prefixes, want 2", len(r.Prefixes))
	}
	for i, n := range []int{100, 200} {
		p := r.Prefixes[i]
		if len(p.Log) != n || cap(p.Log) != n {
			t.Errorf("prefix %d: log len %d cap %d, want %d", i, len(p.Log), cap(p.Log), n)
		}
		if &p.Log[0] != &r.Log[0] {
			t.Errorf("prefix %d: log is a copy, not a view of the run's log", i)
		}
		if p.Prefixes != nil {
			t.Errorf("prefix %d carries prefixes of its own", i)
		}
	}
}

// TestPrefixRefusals covers the runs whose prefix would not be a
// shorter run: a policy that reads the future, a kernel log that
// wrapped over the prefix's entries, a prefix past the end of the
// stream, and counts that are not positive and ascending.
func TestPrefixRefusals(t *testing.T) {
	future, err := FuturePhases(gen(t, "applu_in", 200), nil, machine.New(machine.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pol  Policy
		cfg  Config
		want string
	}{
		{"oracle", Oracle(future), Config{Prefixes: []int{100}}, "reads the future"},
		{"log wrap", Proactive(8, 128), Config{LogCapacity: 64, Prefixes: []int{100}}, "kernel log kept 64 of 200"},
		{"past the end", Proactive(8, 128), Config{Prefixes: []int{100, 300}}, "before its 300-interval prefix"},
		{"descending", Proactive(8, 128), Config{Prefixes: []int{100, 50}}, "ascending"},
		{"zero", Proactive(8, 128), Config{Prefixes: []int{0}}, "positive"},
	}
	for _, c := range cases {
		r, err := Run(gen(t, "applu_in", 200), c.pol, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got result %v, error %v; want an error containing %q", c.name, r != nil, err, c.want)
		}
	}
	// The oracle without prefixes still runs.
	if _, err := Run(gen(t, "applu_in", 200), Oracle(future), Config{}); err != nil {
		t.Errorf("oracle without prefixes: %v", err)
	}
}
