// Fixture: deterministic idioms the determinism analyzer must accept.
package determinismclean

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// seeded threads an explicitly seeded generator: the only sanctioned
// way to use math/rand in simulation code.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64() + rng.NormFloat64()
}

// durations uses time only for unit arithmetic, never the clock.
func durations(n int) time.Duration {
	return time.Duration(n) * time.Millisecond
}

// simClock is a simulated time base: its Now is not the wall clock.
type simClock struct{ ns int64 }

func (c *simClock) Now() int64 { return c.ns }

// simulatedStamp stamps with simulated time.
func simulatedStamp(c *simClock) int64 { return c.Now() }

// sortedOutput emits map contents in sorted key order.
func sortedOutput(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// annotated documents an intentionally unordered dump.
func annotated(m map[string]int) {
	for k := range m { //lint:maporder debug dump, order irrelevant
		fmt.Println(k)
	}
}
