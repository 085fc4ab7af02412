// Fixture: every nondeterminism source the determinism analyzer must
// flag, plus the //lint:wallclock escape hatch.
package determinism

import (
	"fmt"
	"math/rand"
	"time"

	"determinism/telemetry"
)

func wallclock() time.Time {
	start := time.Now()          // want `time.Now reads the wall clock`
	_ = time.Since(start)        // want `time.Since reads the wall clock`
	time.Sleep(time.Millisecond) // want `time.Sleep reads the wall clock`
	return start
}

func allowedWallclock() time.Time {
	return time.Now() //lint:wallclock live-path timestamp
}

func hubClock(h *telemetry.Hub) int64 {
	stamp := h.Now().UnixNano() // want `\(\*telemetry.Hub\).Now reads the wall clock`
	now := (*telemetry.Hub).Now // want `\(\*telemetry.Hub\).Now reads the wall clock`
	_ = now
	return stamp
}

func allowedHubClock(h *telemetry.Hub) time.Time {
	return h.Now() //lint:wallclock live-path stamp
}

func globalRand() float64 {
	n := rand.Intn(6) // want `rand.Intn uses the global math/rand source`
	_ = n
	rand.Seed(42)         // want `rand.Seed uses the global math/rand source`
	return rand.Float64() // want `rand.Float64 uses the global math/rand source`
}

func mapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt.Println inside map iteration`
	}
}
