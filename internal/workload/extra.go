package workload

import (
	"fmt"

	"phasemon/internal/cpusim"
	"phasemon/internal/memhier"
)

// Interleave time-slices two programs the way an OS scheduler does,
// switching between them every quantum sampling intervals. From the
// monitoring framework's perspective this is one "workload" whose
// phase behavior interleaves both programs' — the system-induced
// variability the paper's fixed-instruction sampling is designed to be
// resilient against. The combined program ends when both inputs end
// (the other continues alone after one finishes).
func Interleave(a, b Generator, quantum int) (Generator, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("workload: interleave needs two generators")
	}
	if quantum < 1 {
		return nil, fmt.Errorf("workload: interleave quantum %d must be at least 1", quantum)
	}
	return &interleaveGen{a: a, b: b, quantum: quantum}, nil
}

type interleaveGen struct {
	a, b    Generator
	quantum int

	onB   bool
	slice int
	aDone bool
	bDone bool
}

func (g *interleaveGen) Name() string {
	return fmt.Sprintf("%s+%s", g.a.Name(), g.b.Name())
}

func (g *interleaveGen) Next() (cpusim.Work, bool) {
	for {
		if g.aDone && g.bDone {
			return cpusim.Work{}, false
		}
		// Switch at quantum boundaries (or when the current program
		// has finished).
		if g.slice >= g.quantum {
			g.onB = !g.onB
			g.slice = 0
		}
		cur := g.a
		done := &g.aDone
		if g.onB {
			cur = g.b
			done = &g.bDone
		}
		if *done {
			g.onB = !g.onB
			g.slice = 0
			continue
		}
		w, ok := cur.Next()
		if !ok {
			*done = true
			g.onB = !g.onB
			g.slice = 0
			continue
		}
		g.slice++
		return w, true
	}
}

func (g *interleaveGen) Reset() {
	g.a.Reset()
	g.b.Reset()
	g.onB = false
	g.slice = 0
	g.aDone = false
	g.bDone = false
}

// LocalityPhase is one section of a locality-described program: an
// access profile held for a number of sampling intervals.
type LocalityPhase struct {
	Profile   memhier.AccessProfile
	Intervals int
	// CoreUPC is the section's compute-side uops per cycle.
	CoreUPC float64
}

// FromLocality builds a generator whose Mem/Uop rates are *derived*
// from program locality through the memory-hierarchy model, rather
// than specified directly — working-set behavior in, Table 1 phases
// out. The section list repeats until total intervals have been
// emitted.
func FromLocality(name string, hier *memhier.Model, sections []LocalityPhase, granularityUops float64, total int) (Generator, error) {
	if hier == nil {
		return nil, fmt.Errorf("workload: FromLocality needs a memory-hierarchy model")
	}
	if len(sections) == 0 {
		return nil, fmt.Errorf("workload: FromLocality needs at least one section")
	}
	if total < 1 {
		return nil, fmt.Errorf("workload: FromLocality needs a positive interval count")
	}
	if granularityUops <= 0 {
		granularityUops = 100e6
	}
	// Pre-derive each section's work template.
	templates := make([]cpusim.Work, len(sections))
	counts := make([]int, len(sections))
	for i, sec := range sections {
		if sec.Intervals < 1 {
			return nil, fmt.Errorf("workload: section %d has no intervals", i)
		}
		if !(sec.CoreUPC > 0) {
			return nil, fmt.Errorf("workload: section %d has invalid core UPC %v", i, sec.CoreUPC)
		}
		mem, err := hier.MemPerUop(sec.Profile)
		if err != nil {
			return nil, fmt.Errorf("workload: section %d: %w", i, err)
		}
		templates[i] = cpusim.Work{
			Uops:      granularityUops,
			MemPerUop: mem,
			CoreUPC:   sec.CoreUPC,
			MLP:       1,
		}
		counts[i] = sec.Intervals
	}
	return &localityGen{name: name, templates: templates, counts: counts, total: total}, nil
}

type localityGen struct {
	name      string
	templates []cpusim.Work
	counts    []int
	total     int

	emitted int
	section int
	inSec   int
}

func (g *localityGen) Name() string { return g.name }

func (g *localityGen) Next() (cpusim.Work, bool) {
	if g.emitted >= g.total {
		return cpusim.Work{}, false
	}
	if g.inSec >= g.counts[g.section] {
		g.section = (g.section + 1) % len(g.templates)
		g.inSec = 0
	}
	g.inSec++
	g.emitted++
	return g.templates[g.section], true
}

func (g *localityGen) Reset() {
	g.emitted = 0
	g.section = 0
	g.inSec = 0
}
