// Fixture model of internal/telemetry: a Hub whose Now reads its clock,
// the wall clock unless one is injected.
package telemetry

import "time"

type Hub struct {
	clock func() time.Time
}

func (h *Hub) Now() time.Time { return h.clock() }
