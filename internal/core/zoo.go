package core

// The predictor zoo: four additional pure-go predictor families beyond
// the paper's GPHT and statistical baselines, drawn from the phase-
// classification literature the roadmap names — a run-length repeat
// predictor (the cheapest duration-style heuristic), a bounded
// transition-table Markov chain (the classical phase-sequence model),
// a table-encoded online decision tree over the recent phase/metric
// window (Lin et al.'s runtime-cheap ML shape), and a SAWCAP-style
// online linear regression over the Mem/Uop signal with thresholded
// classification. Each is a StatefulPredictor with a versioned
// snapshot layout and an allocation-free steady-state Observe, so
// every family is negotiable per serving session and survives live
// migration exactly like the GPHT.

import (
	"fmt"
	"math"
	"strconv"

	"phasemon/internal/phase"
)

var (
	_ StatefulPredictor = (*runLength)(nil)
	_ StatefulPredictor = (*markov)(nil)
	_ StatefulPredictor = (*dtree)(nil)
	_ StatefulPredictor = (*linReg)(nil)
)

func init() {
	RegisterPredictor("runlength", buildRunLengthSpec)
	RegisterPredictor("markov", buildMarkovSpec)
	RegisterPredictor("dtree", buildDTreeSpec)
	RegisterPredictor("linreg", buildLinRegSpec)
}

// clampPhase forces garbage IDs to the nearest valid phase, the same
// rule the GPHT applies so tables never hold unrepresentable values.
func clampPhase(p phase.ID, numPhases int) phase.ID {
	if p.Valid(numPhases) {
		return p
	}
	if p < 1 {
		return 1
	}
	return phase.ID(numPhases)
}

// countCap bounds the training counters of the table predictors;
// reaching it halves the row, a deterministic aging step that keeps
// adapting to drifting workloads without ever overflowing.
const countCap = 1 << 30

// --- runlength -----------------------------------------------------

// runLength is the cheapest duration-style predictor: per phase it
// remembers the length of the last completed run and the phase that
// followed it. While the current run is shorter than the remembered
// length it predicts "stay"; at or past it, it predicts the remembered
// successor. Unlike DurationPredictor there is no EMA and no
// transition histogram — two small tables and integer compares, the
// floor of the zoo's cost range.
type runLength struct {
	numPhases int

	current phase.ID
	runLen  int

	// lastRun[p-1] is the last completed run length of phase p; 0 =
	// never completed a run.
	lastRun []uint32
	// next[p-1] is the phase observed after phase p's last run.
	next []phase.ID
}

// NewRunLength builds the run-length repeat predictor.
func NewRunLength(numPhases int) (StatefulPredictor, error) {
	if numPhases < 1 {
		return nil, fmt.Errorf("core: runlength needs at least 1 phase, got %d", numPhases)
	}
	return &runLength{
		numPhases: numPhases,
		lastRun:   make([]uint32, numPhases),
		next:      make([]phase.ID, numPhases),
	}, nil
}

func (p *runLength) Name() string { return "RunLength" }

// Observe implements Predictor.
//
//lint:hotpath
func (p *runLength) Observe(o Observation) phase.ID {
	actual := clampPhase(o.Phase, p.numPhases)
	switch {
	case p.current == phase.None:
		p.current = actual
		p.runLen = 1
	case actual == p.current:
		p.runLen++
	default:
		i := int(p.current) - 1
		p.lastRun[i] = uint32(p.runLen)
		p.next[i] = actual
		p.current = actual
		p.runLen = 1
	}
	i := int(p.current) - 1
	expected := int(p.lastRun[i])
	if expected == 0 || p.runLen < expected {
		return p.current
	}
	if n := p.next[i]; n != phase.None {
		return n
	}
	return p.current
}

func (p *runLength) Reset() {
	p.current = phase.None
	p.runLen = 0
	for i := range p.lastRun {
		p.lastRun[i] = 0
		p.next[i] = phase.None
	}
}

func buildRunLengthSpec(spec PredictorSpec, env SpecEnv) (StatefulPredictor, error) {
	if len(spec.Args) > 0 {
		return nil, fmt.Errorf("runlength takes no arguments, got %v", spec.Args)
	}
	return NewRunLength(env.PhaseCount())
}

// --- markov --------------------------------------------------------

// markovMaxOrder bounds the transition table: the row count is
// (numPhases+1)^order, so order 4 over the default 6-phase table is
// 2401 rows — the largest geometry whose snapshot still rides the
// wire comfortably.
const markovMaxOrder = 4

// markov is a bounded transition-table Markov chain of configurable
// order: the last `order` phases index a dense row of per-successor
// counts, and the prediction is the row's most frequent successor.
// Order 1 is the classical phase transition matrix; higher orders
// capture the multi-phase patterns the GPHT resolves with its shift
// register, at the cost of (numPhases+1)^order rows.
type markov struct {
	name      string
	order     int
	numPhases int

	// state is the packed history: a base-(numPhases+1) number whose
	// digits are the last `order` phases, newest in the lowest digit.
	state uint64
	// pow is (numPhases+1)^(order-1), the modulus that drops the
	// oldest digit on shift.
	pow uint64
	// rows is (numPhases+1)^order.
	rows int
	seen int

	// counts is the dense rows×numPhases transition table.
	counts []uint32
}

// NewMarkov builds an order-k Markov chain predictor.
func NewMarkov(order, numPhases int) (StatefulPredictor, error) {
	if order < 1 || order > markovMaxOrder {
		return nil, fmt.Errorf("core: markov order %d outside [1,%d]", order, markovMaxOrder)
	}
	if numPhases < 1 || numPhases > 15 {
		return nil, fmt.Errorf("core: markov phase count %d outside [1,15]", numPhases)
	}
	base := uint64(numPhases + 1)
	pow := uint64(1)
	rows := 1
	for i := 0; i < order; i++ {
		rows *= int(base)
		if i < order-1 {
			pow *= base
		}
	}
	return &markov{
		name:      fmt.Sprintf("Markov_%d", order),
		order:     order,
		numPhases: numPhases,
		pow:       pow,
		rows:      rows,
		counts:    make([]uint32, rows*numPhases),
	}, nil
}

func (p *markov) Name() string { return p.name }

// Observe implements Predictor: train the row indexed by the previous
// history with the observed outcome, shift the history, and predict
// the new row's most frequent successor (last-value on a cold row).
//
//lint:hotpath
func (p *markov) Observe(o Observation) phase.ID {
	actual := clampPhase(o.Phase, p.numPhases)
	if p.seen >= p.order {
		row := int(p.state) * p.numPhases
		c := p.counts[row+int(actual)-1] + 1
		p.counts[row+int(actual)-1] = c
		if c >= countCap {
			for i := 0; i < p.numPhases; i++ {
				p.counts[row+i] >>= 1
			}
		}
	}
	p.state = (p.state%p.pow)*uint64(p.numPhases+1) + uint64(actual)
	p.seen++
	if p.seen < p.order {
		return actual
	}
	row := int(p.state) * p.numPhases
	best, bestN := actual, uint32(0)
	for i := 0; i < p.numPhases; i++ {
		if n := p.counts[row+i]; n > bestN {
			best, bestN = phase.ID(i+1), n
		}
	}
	return best
}

func (p *markov) Reset() {
	p.state = 0
	p.seen = 0
	for i := range p.counts {
		p.counts[i] = 0
	}
}

// buildMarkovSpec accepts markov[_order]; omitted order selects 1,
// the classical transition matrix.
func buildMarkovSpec(spec PredictorSpec, env SpecEnv) (StatefulPredictor, error) {
	order := 1
	if len(spec.Args) > 1 {
		return nil, fmt.Errorf("markov takes at most an order, got %v", spec.Args)
	}
	if len(spec.Args) > 0 {
		k, err := strconv.Atoi(spec.Args[0])
		if err != nil {
			return nil, fmt.Errorf("markov order %q: %w", spec.Args[0], err)
		}
		order = k
	}
	return NewMarkov(order, env.PhaseCount())
}

// --- dtree ---------------------------------------------------------

// dtreeMaxDepth bounds the leaf table at 2^8 = 256 rows.
const dtreeMaxDepth = 8

// dtree feature indices over the recent phase/metric window.
const (
	featMem      = 0 // current interval's Mem/Uop
	featLast     = 1 // last observed phase ID
	featDelta    = 2 // |Mem/Uop - previous Mem/Uop|
	featRunLen   = 3 // current run length of the last phase
	dtreeNumFeat = 4
)

// dtree is a table-encoded online decision tree in the shape Lin et
// al. use for runtime phase prediction: the tree *structure* is fixed
// at construction (features cycle per level, thresholds come from the
// classifier's phase boundaries and a small fixed grid, so the tree is
// a pure function of the spec and classifier), and *training* is
// online — each leaf keeps per-phase outcome counts, incremented by
// routing the previous interval's feature vector to its leaf when the
// next phase is revealed. Routing is d comparisons over flat arrays;
// training is one counter increment: no allocations at steady state.
type dtree struct {
	name      string
	depth     int
	numPhases int

	// feature[i] and thresh[i] describe internal node i (heap layout,
	// children of i at 2i+1 / 2i+2); 2^depth − 1 nodes.
	feature []uint8
	thresh  []float64

	// counts is the flattened leaves×numPhases outcome table.
	counts []uint32

	// Recent-window state the features derive from.
	last     phase.ID
	prevMem  float64
	havePrev bool
	runLen   int

	// lastLeaf is the leaf the previous interval's features routed to;
	// its counts train when the next outcome arrives. -1 = none.
	lastLeaf int
}

// NewDTree builds a depth-d table-encoded decision tree predictor
// whose Mem/Uop thresholds derive from the classifier's boundaries.
func NewDTree(depth int, cls phase.Classifier) (StatefulPredictor, error) {
	if depth < 1 || depth > dtreeMaxDepth {
		return nil, fmt.Errorf("core: dtree depth %d outside [1,%d]", depth, dtreeMaxDepth)
	}
	if cls == nil {
		return nil, fmt.Errorf("core: dtree requires a classifier")
	}
	numPhases := cls.NumPhases()
	internal := (1 << depth) - 1
	leaves := 1 << depth
	t := &dtree{
		name:      fmt.Sprintf("DTree_%d", depth),
		depth:     depth,
		numPhases: numPhases,
		feature:   make([]uint8, internal),
		thresh:    make([]float64, internal),
		counts:    make([]uint32, leaves*numPhases),
		lastLeaf:  -1,
	}
	memBounds := memThresholds(cls)
	deltaGrid := []float64{0.002, 0.005, 0.010, 0.030}
	runGrid := []float64{2, 4, 8, 16, 32}
	// Level-order features: the Mem/Uop signal first (it defines the
	// phase), then the last phase, then the transition signals.
	order := []uint8{featMem, featLast, featDelta, featRunLen}
	for i := 0; i < internal; i++ {
		level := 0
		for n := i + 1; n > 1; n >>= 1 {
			level++
		}
		f := order[level%len(order)]
		t.feature[i] = f
		switch f {
		case featMem:
			t.thresh[i] = memBounds[i%len(memBounds)]
		case featLast:
			t.thresh[i] = float64(1+i%numPhases) + 0.5
		case featDelta:
			t.thresh[i] = deltaGrid[i%len(deltaGrid)]
		default: // featRunLen
			t.thresh[i] = runGrid[i%len(runGrid)]
		}
	}
	return t, nil
}

// memThresholds extracts the classifier's phase boundaries when it
// exposes them (the paper's Table grammar does); other classifiers
// fall back to the default table's boundaries so the tree still
// splits on meaningful Mem/Uop values.
func memThresholds(cls phase.Classifier) []float64 {
	if t, ok := cls.(*phase.Table); ok {
		if b := t.Bounds(); len(b) > 0 {
			return b
		}
	}
	return phase.Default().Bounds()
}

func (p *dtree) Name() string { return p.name }

// route walks the fixed tree over the current feature values and
// returns the leaf index.
func (p *dtree) route(mem, delta float64) int {
	i := 0
	for level := 0; level < p.depth; level++ {
		var v float64
		switch p.feature[i] {
		case featMem:
			v = mem
		case featLast:
			v = float64(p.last)
		case featDelta:
			v = delta
		default:
			v = float64(p.runLen)
		}
		if v > p.thresh[i] {
			i = 2*i + 2
		} else {
			i = 2*i + 1
		}
	}
	return i - ((1 << p.depth) - 1)
}

// Observe implements Predictor: train the previously routed leaf with
// the revealed outcome, refresh the window state, route the new
// features, and predict the new leaf's most frequent outcome
// (last-value on a cold leaf).
//
//lint:hotpath
func (p *dtree) Observe(o Observation) phase.ID {
	actual := clampPhase(o.Phase, p.numPhases)
	if p.lastLeaf >= 0 {
		row := p.lastLeaf * p.numPhases
		c := p.counts[row+int(actual)-1] + 1
		p.counts[row+int(actual)-1] = c
		if c >= countCap {
			for i := 0; i < p.numPhases; i++ {
				p.counts[row+i] >>= 1
			}
		}
	}
	mem := o.Sample.MemPerUop
	delta := 0.0
	if p.havePrev {
		delta = math.Abs(mem - p.prevMem)
	}
	p.prevMem = mem
	p.havePrev = true
	if actual == p.last {
		p.runLen++
	} else {
		p.runLen = 1
	}
	p.last = actual
	leaf := p.route(mem, delta)
	p.lastLeaf = leaf
	row := leaf * p.numPhases
	best, bestN := actual, uint32(0)
	for i := 0; i < p.numPhases; i++ {
		if n := p.counts[row+i]; n > bestN {
			best, bestN = phase.ID(i+1), n
		}
	}
	return best
}

func (p *dtree) Reset() {
	for i := range p.counts {
		p.counts[i] = 0
	}
	p.last = phase.None
	p.prevMem = 0
	p.havePrev = false
	p.runLen = 0
	p.lastLeaf = -1
}

// buildDTreeSpec accepts dtree[_depth]; omitted depth selects 4.
func buildDTreeSpec(spec PredictorSpec, env SpecEnv) (StatefulPredictor, error) {
	depth := 4
	if len(spec.Args) > 1 {
		return nil, fmt.Errorf("dtree takes at most a depth, got %v", spec.Args)
	}
	if len(spec.Args) > 0 {
		d, err := strconv.Atoi(spec.Args[0])
		if err != nil {
			return nil, fmt.Errorf("dtree depth %q: %w", spec.Args[0], err)
		}
		depth = d
	}
	return NewDTree(depth, env.ClassifierOrDefault())
}

// --- linreg --------------------------------------------------------

// linRegMaxWindow bounds the regression window; the per-interval cost
// is one pass over the window, so this also bounds Observe latency.
const linRegMaxWindow = 4096

// linReg is a SAWCAP-style online regression predictor: it fits a
// least-squares line to the last `window` Mem/Uop samples,
// extrapolates one interval ahead, and classifies the extrapolated
// value — prediction by signal forecasting rather than by pattern
// table. It anticipates gradual drifts (ramps the table predictors
// chase one interval late) but cannot represent abrupt pattern
// alternation; the tournament quantifies exactly that trade.
type linReg struct {
	name   string
	window int
	cls    phase.Classifier

	// ring holds the last `window` Mem/Uop values; head is the next
	// write slot, count the filled prefix.
	ring  []float64
	head  int
	count int

	last phase.ID
}

// NewLinReg builds the regression predictor over the given window.
func NewLinReg(window int, cls phase.Classifier) (StatefulPredictor, error) {
	if window < 2 || window > linRegMaxWindow {
		return nil, fmt.Errorf("core: linreg window %d outside [2,%d]", window, linRegMaxWindow)
	}
	if cls == nil {
		return nil, fmt.Errorf("core: linreg requires a classifier")
	}
	return &linReg{
		name:   fmt.Sprintf("LinReg_%d", window),
		window: window,
		cls:    cls,
		ring:   make([]float64, window),
	}, nil
}

func (p *linReg) Name() string { return p.name }

// Observe implements Predictor: push the sample, fit y = a + b·x over
// the window (x = 0 oldest … m−1 newest), extrapolate x = m, classify.
//
//lint:hotpath
func (p *linReg) Observe(o Observation) phase.ID {
	p.last = clampPhase(o.Phase, p.cls.NumPhases())
	p.ring[p.head] = o.Sample.MemPerUop
	p.head++
	if p.head == p.window {
		p.head = 0
	}
	if p.count < p.window {
		p.count++
	}
	if p.count < 2 {
		return p.last
	}
	m := p.count
	// Oldest sample's ring slot; iterate in time order so the float
	// accumulation is reproducible.
	start := p.head - m
	if start < 0 {
		start += p.window
	}
	var sy, sxy float64
	for i := 0; i < m; i++ {
		idx := start + i
		if idx >= p.window {
			idx -= p.window
		}
		v := p.ring[idx]
		sy += v
		sxy += float64(float64(i) * v)
	}
	// float64 rounds each product before its add or subtract (in the
	// sxy sum too), so no architecture fuses them.
	fm := float64(m)
	sx := fm * (fm - 1) / 2
	sxx := fm * (fm - 1) * (2*fm - 1) / 6
	denom := float64(fm*sxx) - float64(sx*sx)
	slope := (float64(fm*sxy) - float64(sx*sy)) / denom
	intercept := (sy - float64(slope*sx)) / fm
	next := intercept + float64(slope*fm)
	if next < 0 {
		next = 0
	}
	return p.cls.Classify(phase.Sample{MemPerUop: next})
}

func (p *linReg) Reset() {
	for i := range p.ring {
		p.ring[i] = 0
	}
	p.head = 0
	p.count = 0
	p.last = phase.None
}

// buildLinRegSpec accepts linreg[_window]; omitted window selects 16.
func buildLinRegSpec(spec PredictorSpec, env SpecEnv) (StatefulPredictor, error) {
	window := 16
	if len(spec.Args) > 1 {
		return nil, fmt.Errorf("linreg takes at most a window, got %v", spec.Args)
	}
	if len(spec.Args) > 0 {
		w, err := strconv.Atoi(spec.Args[0])
		if err != nil {
			return nil, fmt.Errorf("linreg window %q: %w", spec.Args[0], err)
		}
		window = w
	}
	return NewLinReg(window, env.ClassifierOrDefault())
}
