// Command phased runs the streaming phase-prediction service: monitored
// nodes connect over TCP, negotiate a predictor spec per session, and
// stream per-interval PMC samples; the server answers each with the
// classified phase, the predicted next phase, and the DVFS setting the
// paper's translation assigns it.
//
// The process drains gracefully on SIGINT/SIGTERM: queued samples
// flush, every open session receives a Drain frame, the telemetry
// listener finishes in-flight scrapes, and the process exits 0 — the
// contract the serve-smoke harness asserts. Sessions opened resumable
// (wire.FlagSnapshot) additionally receive a Snapshot frame carrying
// the predictor's full serialized state just before their Drain, so a
// rolling restart is lossless: clients resume the session on the
// replacement process and predictions continue bit-identically (see
// phasefeed -resume and DESIGN.md §14).
//
// Usage:
//
//	phased [-addr 127.0.0.1:0] [-metrics-addr :9100] [-workers N]
//	       [-queue-depth N] [-max-sessions-per-ip N]
//	       [-read-timeout 30s] [-write-timeout 5s] [-drain-timeout 10s]
//	       [-node-id N] [-rollup-bucket 1s] [-rollup-flush 1s]
//
// The metrics address also serves /healthz, a drain-aware /readyz,
// and /rollup — the node's merged fleet-rollup view (see cmd/phasetop
// for the live terminal rendering of the same stream).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"phasemon/internal/phase"
	"phasemon/internal/phased"
	"phasemon/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:0", "TCP address to serve the wire protocol on")
		metricsAddr  = flag.String("metrics-addr", "", "serve phasemon_phased_* telemetry over HTTP on this address (empty = disabled)")
		workers      = flag.Int("workers", 0, "prediction worker pool size (0 = default)")
		queueDepth   = flag.Int("queue-depth", 0, "per-session sample queue bound, drop-oldest on overflow (0 = default)")
		perIP        = flag.Int("max-sessions-per-ip", 0, "concurrent session cap per client IP (0 = default, negative = unlimited)")
		readTimeout  = flag.Duration("read-timeout", 0, "per-read idle deadline (0 = default)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-frame write deadline; slow clients past it are dropped (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")
		nodeID       = flag.Uint64("node-id", 0, "node id stamped on emitted Rollup frames")
		rollupBucket = flag.Duration("rollup-bucket", 0, "rollup time-bucket length (0 = default 1s)")
		rollupFlush  = flag.Duration("rollup-flush", 0, "rollup flusher period (0 = default 1s)")
		flushIvl     = flag.Duration("flush-interval", 0, "longest a buffered reply waits while other samples on its connection are in flight; with none in flight it is sent at once (0 = default 500µs)")
		flushBytes   = flag.Int("flush-bytes", 0, "reply coalescing size threshold (0 = default 32KiB)")
	)
	flag.Parse()
	cfg := phased.Config{
		NodeID:       *nodeID,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		RollupBucket: *rollupBucket,
		RollupFlush:  *rollupFlush,

		MaxSessionsPerIP: *perIP,
		ReadTimeout:      *readTimeout,
		WriteTimeout:     *writeTimeout,
		FlushInterval:    *flushIvl,
		FlushBytes:       *flushBytes,
	}
	if err := run(*addr, *metricsAddr, cfg, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, metricsAddr string, cfg phased.Config, drainTimeout time.Duration) error {
	hub := telemetry.NewHub(phase.Default().NumPhases())
	cfg.Telemetry = hub
	srv, err := phased.New(cfg)
	if err != nil {
		return err
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Printf("phased: listening on %s\n", bound)

	targets := []phased.Drainable{srv}
	if metricsAddr != "" {
		mb, stopMetrics, err := srv.ServeMetrics(metricsAddr, hub)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("phased: metrics on http://%s/metrics (readiness /readyz, fleet view /rollup)\n", mb)
		targets = append(targets, phased.DrainFunc(stopMetrics))
	}

	drainer := phased.NewDrainer(drainTimeout, targets...)
	done := make(chan os.Signal, 1)
	stop := drainer.OnSignal(func(sig os.Signal) { done <- sig })
	defer stop()

	sig := <-done
	fmt.Printf("phased: %s received, drained (frames_in=%d frames_out=%d dropped_samples=%d protocol_errors=%d)\n",
		sig,
		hub.PhasedFramesIn.Value(), hub.PhasedFramesOut.Value(),
		hub.PhasedDroppedSamples.Value(), hub.PhasedProtocolErrors.Value())
	return nil
}
