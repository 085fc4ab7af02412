package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"phasemon/internal/core"
	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/workload"
)

// Cache is the work one experiments invocation shares between its
// figures. The paper compares the same governed runs several times
// (Figure 11's baseline and GPHT runs reappear in Figures 12 and 13
// and the headline numbers), and the prediction figures replay the
// same observation streams, so a command that renders several figures
// passes one Cache to all of them through Options and computes each
// piece once:
//
//   - workload traces, in one wcache.Cache that the fleet engines
//     behind Figures 11-13 read as well;
//   - observation streams, keyed by the trace they observe;
//   - governed runs, keyed by their fleet.Spec, each replayed over its
//     trace's machine table and reduced on the worker that replayed it
//     to the machine.RunResult the figures read;
//   - figure results, keyed by figure and workload parameters.
//
// Every key is a full content key and every value is deterministic,
// so a figure served from a Cache equals a standalone one, whatever
// ran before it. Values are shared and immutable once stored: callers
// must not modify what a figure returns. A Cache is safe for
// concurrent use; concurrent requests for one key compute it once.
type Cache struct {
	// tel, when non-nil, observes the trace cache and the fleet
	// engines (tests count the invocation's work through it).
	tel     *telemetry.Hub
	traces  *wcache.Cache
	streams memo[wcache.Key, []core.Observation]
	runs    memo[fleet.Spec, machine.RunResult]
	figures memo[figureKey, any]
}

// NewCache returns an empty Cache.
func NewCache() *Cache { return newCache(nil) }

func newCache(tel *telemetry.Hub) *Cache {
	return &Cache{tel: tel, traces: wcache.New(wcache.Config{Telemetry: tel})}
}

// run returns one result per spec, in spec order, each carrying only
// the run's machine.RunResult (Run), which is all the figures' metrics
// read. Specs the Cache has not seen play on a fleet engine sharing the
// Cache's traces, o.Workers at a time, each replayed over its whole
// trace (fleet.Play) and reduced on its worker, so no record outlives
// its replay. Every slot claimed here is set, failed specs included,
// since figures waiting on an unset slot would block for ever.
func (c *Cache) run(o Options, specs []fleet.Spec) ([]*governor.Result, error) {
	slots := make([]*slot[machine.RunResult], len(specs))
	var todo []fleet.Spec
	var mine []*slot[machine.RunResult]
	for i, sp := range specs {
		s, fill := c.runs.claim(sp)
		slots[i] = s
		if fill {
			todo = append(todo, sp)
			mine = append(mine, s)
		}
	}
	if len(todo) > 0 {
		type outcome struct {
			run    machine.RunResult
			err    error
			played bool
		}
		ctx := context.Background()
		e := fleet.New(fleet.Config{Workers: o.Workers, Traces: c.traces, Telemetry: c.tel})
		play := func(sp fleet.Spec, rp *governor.Replay) (outcome, error) {
			res, err := rp.Run(ctx, rp.Len())
			if err != nil {
				return outcome{err: fmt.Errorf("experiments: %s under %s: %w", sp.Workload, sp.Policy, err), played: true}, nil
			}
			return outcome{run: res.Run, played: true}, nil
		}
		// Every played spec gets its own outcome; the sweep error is only
		// that of the lowest spec that could not be set up.
		outs, _ := fleet.Play(ctx, e, todo, play)
		for i, s := range mine {
			o := outs[i]
			if !o.played {
				// Play reduces no spec it could not set up: set this one
				// up alone for its own error.
				_, err := fleet.Play(ctx, e, todo[i:i+1], play)
				o.err = fmt.Errorf("experiments: %s under %s: %w", todo[i].Workload, todo[i].Policy, errors.Unwrap(err))
			}
			s.set(o.run, o.err)
		}
	}
	out := make([]*governor.Result, len(specs))
	for i, s := range slots {
		rr, err := s.wait()
		if err != nil {
			return nil, err
		}
		out[i] = &governor.Result{Run: rr}
	}
	return out, nil
}

// figureKey identifies one figure's result: the figure (with any
// arguments beyond Options folded into the name) and the resolved
// workload parameters. Workers is not part of it, since it never
// changes a result.
type figureKey struct {
	name   string
	params workload.Params
}

// figure returns the named figure's result for o (defaults applied),
// calling compute only if o's Cache does not hold it yet.
func figure[T any](o Options, name string, compute func(Options) (T, error)) (T, error) {
	o = o.withDefaults()
	v, err := o.Cache.figures.get(figureKey{name, o.params()}, func() (any, error) { return compute(o) })
	t, _ := v.(T)
	return t, err
}

// memo is a single-flight map: the first request for a key fills its
// slot, and every other request waits for that fill and shares its
// value and error.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*slot[V] // guarded by mu
}

type slot[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// claim returns k's slot and whether the caller must fill it with set.
func (m *memo[K, V]) claim(k K) (*slot[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.m[k]; ok {
		return s, false
	}
	if m.m == nil {
		m.m = make(map[K]*slot[V])
	}
	s := &slot[V]{done: make(chan struct{})}
	m.m[k] = s
	return s, true
}

// get returns k's value, calling fill if no request has claimed k.
func (m *memo[K, V]) get(k K, fill func() (V, error)) (V, error) {
	s, mine := m.claim(k)
	if mine {
		s.set(fill())
	}
	return s.wait()
}

func (s *slot[V]) set(v V, err error) {
	s.v, s.err = v, err
	close(s.done)
}

func (s *slot[V]) wait() (V, error) {
	<-s.done
	return s.v, s.err
}
