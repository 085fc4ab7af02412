// Package pmc models the Pentium-M performance monitoring hardware
// that the paper's framework is built on: two programmable 40-bit
// event counters, the time stamp counter (TSC), and the performance
// monitoring interrupt (PMI) raised when an interrupt-enabled counter
// overflows.
//
// The paper's LKM dedicates one counter to UOPS_RETIRED — initialized
// to overflow after 100 million retired micro-ops, which paces the
// whole monitoring loop — and configures the second for BUS_TRAN_MEM.
// The same protocol is reproduced here: software arms a counter by
// writing (2^40 − n) so that it wraps, and thus interrupts, after n
// more events.
package pmc

import (
	"errors"
	"fmt"
)

// EventID selects which hardware event a programmable counter counts.
type EventID int

// The event encodings the framework uses (a tiny subset of the real
// Pentium-M event list).
const (
	EventNone EventID = iota
	// EventUopsRetired counts retired micro-ops (UOPS_RETIRED).
	EventUopsRetired
	// EventInstrRetired counts retired architectural instructions
	// (INSTR_RETIRED).
	EventInstrRetired
	// EventBusTranMem counts memory bus transactions (BUS_TRAN_MEM).
	EventBusTranMem
)

// String names the event like Intel's documentation does.
func (e EventID) String() string {
	switch e {
	case EventNone:
		return "NONE"
	case EventUopsRetired:
		return "UOPS_RETIRED"
	case EventInstrRetired:
		return "INSTR_RETIRED"
	case EventBusTranMem:
		return "BUS_TRAN_MEM"
	default:
		return fmt.Sprintf("EVENT(%d)", int(e))
	}
}

// NumProgrammable is how many programmable counters the platform has.
// The paper's phase-classification design is explicitly constrained by
// this number: with one counter pinned to UOPS_RETIRED for the PMI,
// only one metric (BUS_TRAN_MEM) remains for phase definition.
const NumProgrammable = 2

// CounterWidth is the bit width of a programmable counter.
const CounterWidth = 40

// counterMask keeps values within CounterWidth bits.
const counterMask = (uint64(1) << CounterWidth) - 1

// Delta carries the event increments of an executed chunk of work, as
// produced by the timing model.
type Delta struct {
	Uops            uint64
	Instructions    uint64
	MemTransactions uint64
	Cycles          uint64
}

// counts extracts the increment relevant to an event.
func (d Delta) counts(e EventID) uint64 {
	switch e {
	case EventUopsRetired:
		return d.Uops
	case EventInstrRetired:
		return d.Instructions
	case EventBusTranMem:
		return d.MemTransactions
	default:
		return 0
	}
}

type counter struct {
	event     EventID
	value     uint64 // always masked to CounterWidth bits
	intEnable bool
}

// Bank is the processor's counter state: the programmable counters
// plus the free-running TSC.
type Bank struct {
	slots   [NumProgrammable]counter
	tsc     uint64
	running bool
	pmis    uint64
}

// NewBank returns a bank with all counters unconfigured and stopped.
func NewBank() *Bank { return &Bank{} }

// ErrBadSlot reports a counter index outside [0, NumProgrammable).
var ErrBadSlot = errors.New("pmc: counter slot out of range")

func checkSlot(slot int) error {
	if slot < 0 || slot >= NumProgrammable {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	return nil
}

// Configure assigns an event to a counter slot and sets whether its
// overflow raises a PMI.
func (b *Bank) Configure(slot int, e EventID, interruptOnOverflow bool) error {
	if err := checkSlot(slot); err != nil {
		return err
	}
	b.slots[slot].event = e
	b.slots[slot].intEnable = interruptOnOverflow
	return nil
}

// Write sets a counter's value (masked to the counter width), the way
// the LKM programs a counter through its MSR.
func (b *Bank) Write(slot int, v uint64) error {
	if err := checkSlot(slot); err != nil {
		return err
	}
	b.slots[slot].value = v & counterMask
	return nil
}

// Read returns a counter's current value.
func (b *Bank) Read(slot int) (uint64, error) {
	if err := checkSlot(slot); err != nil {
		return 0, err
	}
	return b.slots[slot].value, nil
}

// Event returns the event configured on a slot.
func (b *Bank) Event(slot int) (EventID, error) {
	if err := checkSlot(slot); err != nil {
		return EventNone, err
	}
	return b.slots[slot].event, nil
}

// Arm writes a counter so that it overflows — and, if enabled,
// interrupts — after n more events: the (2^width − n) initialization
// the paper's handler performs at every exit.
func (b *Bank) Arm(slot int, n uint64) error {
	if err := checkSlot(slot); err != nil {
		return err
	}
	if n == 0 || n > counterMask {
		return fmt.Errorf("pmc: arm count %d outside (0, 2^%d)", n, CounterWidth)
	}
	b.slots[slot].value = (counterMask + 1 - n) & counterMask
	return nil
}

// UntilOverflow returns how many more events the slot's counter can
// absorb before wrapping. A freshly armed counter returns its arm
// count.
func (b *Bank) UntilOverflow(slot int) (uint64, error) {
	if err := checkSlot(slot); err != nil {
		return 0, err
	}
	return counterMask + 1 - b.slots[slot].value, nil
}

// Start lets the counters run; Stop freezes them. The TSC is
// free-running on real hardware, but the paper's handler reinitializes
// it alongside the PMCs, so it advances only while the bank runs here.
func (b *Bank) Start() { b.running = true }

// Stop freezes the counters.
func (b *Bank) Stop() { b.running = false }

// Running reports whether the counters are counting.
//
//lint:unusedexport reference oracle: the kernel-module lifecycle tests check that Load and Unload start and stop the bank
func (b *Bank) Running() bool { return b.running }

// TSC returns the time stamp counter.
func (b *Bank) TSC() uint64 { return b.tsc }

// WriteTSC sets the time stamp counter.
func (b *Bank) WriteTSC(v uint64) { b.tsc = v }

// PMICount returns how many interrupts the bank has raised.
func (b *Bank) PMICount() uint64 { return b.pmis }

// Advance applies one executed chunk's event increments. It returns
// true when an interrupt-enabled programmable counter wrapped during
// the chunk — the PMI. Advancing a stopped bank is a no-op returning
// false.
func (b *Bank) Advance(d Delta) bool {
	if !b.running {
		return false
	}
	b.tsc += d.Cycles
	pmi := false
	for i := range b.slots {
		c := &b.slots[i]
		if c.event == EventNone {
			continue
		}
		inc := d.counts(c.event)
		if inc == 0 {
			continue
		}
		sum := c.value + inc
		if sum > counterMask {
			if c.intEnable {
				pmi = true
			}
			sum &= counterMask
		}
		c.value = sum
	}
	if pmi {
		b.pmis++
	}
	return pmi
}

// Reset returns the bank to its initial unconfigured state.
func (b *Bank) Reset() { *b = Bank{} }
