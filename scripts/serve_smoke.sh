#!/usr/bin/env bash
# serve-smoke: end-to-end exercise of the serving stack. Starts the
# phased server with its metrics/health endpoint, polls /readyz until
# the server reports ready (no blind sleeps), drives it with phasefeed
# (full-speed burst, then a paced run) with the bit-identical
# determinism check on, asserts the merged /rollup view saw the
# samples, then sends SIGTERM and asserts a graceful drain: exit 0,
# zero protocol errors, and the drain summary line present. A second
# leg rehearses a rolling restart: a paced `phasefeed -resume -check`
# rides out a SIGTERM of its server mid-stream by resuming every
# session on a replacement bound to the same address.
# `make serve-smoke` runs this and `make check` / CI include it.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-out/serve-smoke}
mkdir -p "$OUT"
go build -o "$OUT/phased" ./cmd/phased
go build -o "$OUT/phasefeed" ./cmd/phasefeed

PHASED_PID=""
FEED_PID=""
trap 'kill $PHASED_PID $FEED_PID 2>/dev/null || true' EXIT

# start_phased LOG ADDR starts phased listening on ADDR (port 0 picks a
# free one) and sets PHASED_PID, ADDR and METRICS. The log carries both
# bound addresses; readiness is polled separately (await_ready), so
# this loop only waits for the lines to appear. The log is emptied
# here, before the launch: a background child that truncated it itself
# could do so after the first read below, which would then parse a
# previous run's addresses.
start_phased() {
  local log=$1
  : >"$log"
  "$OUT/phased" -addr "$2" -metrics-addr 127.0.0.1:0 \
    -node-id 1 -rollup-bucket 200ms -rollup-flush 100ms \
    >>"$log" 2>&1 &
  PHASED_PID=$!
  ADDR=""
  METRICS=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^phased: listening on //p' "$log" | head -n1)
    METRICS=$(sed -n 's|^phased: metrics on http://\([^/]*\)/.*|\1|p' "$log" | head -n1)
    [ -n "$ADDR" ] && [ -n "$METRICS" ] && return 0
    sleep 0.1
  done
  echo "serve-smoke: phased never reported its addresses" >&2
  cat "$log" >&2
  exit 1
}

await_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$METRICS/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "serve-smoke: /readyz never answered 200" >&2
  exit 1
}

# stop_phased LOG sends SIGTERM and requires a graceful drain: exit 0
# and the drain summary line in LOG.
stop_phased() {
  local log=$1 status=0
  kill -TERM "$PHASED_PID"
  wait "$PHASED_PID" || status=$?
  PHASED_PID=""
  if [ "$status" -ne 0 ]; then
    echo "serve-smoke: phased exited $status after SIGTERM, want 0" >&2
    cat "$log" >&2
    exit 1
  fi
  if ! grep -q "drained" "$log"; then
    echo "serve-smoke: no drain summary in server log" >&2
    cat "$log" >&2
    exit 1
  fi
}

# require_no_protocol_errors LOG checks the drain summary in LOG.
require_no_protocol_errors() {
  if ! grep -q "protocol_errors=0" "$1"; then
    echo "serve-smoke: server reported protocol errors" >&2
    cat "$1" >&2
    exit 1
  fi
}

start_phased "$OUT/phased.log" 127.0.0.1:0
await_ready
curl -fsS "http://$METRICS/healthz" >/dev/null

# Full-speed burst: four nodes, determinism-checked.
"$OUT/phasefeed" -addr "$ADDR" -nodes 4 -intervals 300 -check | tee "$OUT/phasefeed.log"
# Batched wire protocol: same bit-identity bar over KindBatch frames.
"$OUT/phasefeed" -addr "$ADDR" -nodes 4 -intervals 300 -batch 64 -check | tee -a "$OUT/phasefeed.log"
# Paced run: reconnecting clients at a fixed sample rate.
"$OUT/phasefeed" -addr "$ADDR" -nodes 2 -intervals 120 -rate 400 -check | tee -a "$OUT/phasefeed.log"
# Open-loop load probe: no -check (overload sheds by design); the run
# must still drain cleanly and report its achieved rate.
"$OUT/phasefeed" -addr "$ADDR" -nodes 2 -intervals 2000 -open -batch 256 | tee -a "$OUT/phasefeed.log"
if ! grep -q "open-loop" "$OUT/phasefeed.log"; then
  echo "serve-smoke: open-loop summary line missing" >&2
  exit 1
fi

# Give the flusher one bucket length + flush period, then require the
# merged rollup view to have counted samples.
sleep 0.4
curl -fsS "http://$METRICS/rollup" >"$OUT/rollup.json"
if ! grep -q '"samples": [1-9]' "$OUT/rollup.json"; then
  echo "serve-smoke: /rollup shows no samples after the feed" >&2
  cat "$OUT/rollup.json" >&2
  exit 1
fi

stop_phased "$OUT/phased.log"
require_no_protocol_errors "$OUT/phased.log"

# Rolling restart. Start a paced, resumable, determinism-checked feed
# (about three seconds per node), SIGTERM its server once a hundred
# reply frames have gone out, and start a replacement on the same
# address: every node must take its snapshot, resume on the
# replacement, and finish bit-identical. The draining server may count
# late samples against sessions it already closed, so only the
# replacement's drain is held to zero protocol errors.
start_phased "$OUT/phased-restart-a.log" 127.0.0.1:0
await_ready
"$OUT/phasefeed" -addr "$ADDR" -nodes 2 -intervals 600 -rate 200 \
  -spec gpht_8_128 -resume -check >"$OUT/phasefeed-resume.log" 2>&1 &
FEED_PID=$!
SENT=0
for _ in $(seq 1 200); do
  SENT=$(curl -fsS "http://$METRICS/metrics" |
    awk '$1 == "phasemon_phased_frames_out_total" { print int($2) }') || true
  [ "${SENT:-0}" -ge 100 ] && break
  sleep 0.05
done
if [ "${SENT:-0}" -lt 100 ]; then
  echo "serve-smoke: resumable feed never got under way" >&2
  cat "$OUT/phasefeed-resume.log" >&2
  exit 1
fi
stop_phased "$OUT/phased-restart-a.log"
start_phased "$OUT/phased-restart-b.log" "$ADDR"

FEED_STATUS=0
wait "$FEED_PID" || FEED_STATUS=$?
FEED_PID=""
cat "$OUT/phasefeed-resume.log"
if [ "$FEED_STATUS" -ne 0 ] || ! grep -q "mismatches=0" "$OUT/phasefeed-resume.log"; then
  echo "serve-smoke: resumable feed exited $FEED_STATUS across the restart, want 0 with mismatches=0" >&2
  exit 1
fi
if ! grep -q "resuming" "$OUT/phasefeed-resume.log"; then
  echo "serve-smoke: no session resumed; the restart missed the stream" >&2
  exit 1
fi
stop_phased "$OUT/phased-restart-b.log"
require_no_protocol_errors "$OUT/phased-restart-b.log"
trap - EXIT
echo "serve-smoke: ok"
