#!/usr/bin/env bash
# tournament-smoke: end-to-end determinism check of the predictor
# tournament. Runs phasearena twice on a small but real grid (3
# workloads x 6 specs x 2 granularities, 2 elimination rounds) — once
# serial, once with 4 workers — and requires the leaderboard JSON
# artifacts to be byte-identical: the tournament's reduction must be a
# pure function of the grid, independent of scheduling. A third run at -workers 2
# re-confirms against the same reference. A second pair plays the same
# grid for 3 rounds with no elimination (-top 0) at -workers 1 and 4:
# there each cell runs once and scores its earlier rounds on the run's
# prefixes. `make tournament-smoke` runs this and `make check` / CI
# include it.
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

"$OUT/phasearena" -grid "$GRID" -rounds 3 -top 0 -workers 1 \
  -o "$OUT/leaderboard_keepall_w1.json" >"$OUT/table_keepall_w1.txt"
"$OUT/phasearena" -grid "$GRID" -rounds 3 -top 0 -workers 4 \
  -o "$OUT/leaderboard_keepall_w4.json" >"$OUT/table_keepall_w4.txt"

for pair in w1:w4 w1:w2 keepall_w1:keepall_w4; do
  a=${pair%%:*} b=${pair##*:}
  if ! cmp -s "$OUT/leaderboard_$a.json" "$OUT/leaderboard_$b.json"; then
    echo "tournament-smoke: leaderboard differs between runs $a and $b" >&2
    diff "$OUT/leaderboard_$a.json" "$OUT/leaderboard_$b.json" | head -40 >&2 || true
    exit 1
  fi
done
if [ "$(grep -c '"round": ' "$OUT/leaderboard_keepall_w1.json")" -ne 3 ]; then
  echo "tournament-smoke: keep-all artifact does not record 3 rounds" >&2
  exit 1
fi

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
