#!/usr/bin/env bash
# tournament-smoke: end-to-end determinism check of the predictor
# tournament. Runs phasearena twice on a small but real grid (3
# workloads x 6 specs x 2 granularities, 2 elimination rounds) — once
# serial, once with 4 workers — and requires the leaderboard JSON
# artifacts to be byte-identical: the tournament's reduction must be a
# pure function of the grid, independent of scheduling. A third run at -workers 2
# re-confirms against the same reference. `make tournament-smoke` runs
# this and `make check` / CI include it.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-out/tournament-smoke}
mkdir -p "$OUT"
go build -o "$OUT/phasearena" ./cmd/phasearena

# Two granularities, so every managed cell must find its own
# (workload, granularity) baseline.
GRID='workloads=applu_in,gzip_graphic,swim_in;specs=lastvalue,gpht_4_64,runlength,markov_2,dtree_4,linreg_16;gran=100000000,50000000;intervals=48'

"$OUT/phasearena" -grid "$GRID" -rounds 2 -top 3 -workers 1 \
  -o "$OUT/leaderboard_w1.json" >"$OUT/table_w1.txt"
"$OUT/phasearena" -grid "$GRID" -rounds 2 -top 3 -workers 4 \
  -o "$OUT/leaderboard_w4.json" >"$OUT/table_w4.txt"
"$OUT/phasearena" -grid "$GRID" -rounds 2 -top 3 -workers 2 \
  -o "$OUT/leaderboard_w2.json" >"$OUT/table_w2.txt"

for w in 4 2; do
  if ! cmp -s "$OUT/leaderboard_w1.json" "$OUT/leaderboard_w$w.json"; then
    echo "tournament-smoke: leaderboard differs between -workers 1 and -workers $w" >&2
    diff "$OUT/leaderboard_w1.json" "$OUT/leaderboard_w$w.json" | head -40 >&2 || true
    exit 1
  fi
done

# The artifact must be a ranked leaderboard, not an empty shell.
if ! grep -q '"schema_version": 1' "$OUT/leaderboard_w1.json"; then
  echo "tournament-smoke: artifact missing schema_version 1" >&2
  exit 1
fi
if ! grep -q '"winner": "' "$OUT/leaderboard_w1.json"; then
  echo "tournament-smoke: artifact names no winner" >&2
  exit 1
fi
if ! grep -q '"eliminated"' "$OUT/leaderboard_w1.json"; then
  echo "tournament-smoke: artifact records no elimination rounds" >&2
  exit 1
fi
if ! grep -q "winner: " "$OUT/table_w1.txt"; then
  echo "tournament-smoke: human table names no winner" >&2
  cat "$OUT/table_w1.txt" >&2
  exit 1
fi
echo "tournament-smoke: ok"
