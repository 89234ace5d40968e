#!/usr/bin/env bash
# Loopback smoke run for the serving stack: start rlbd, hammer it with
# rlb_loadgen for a couple of seconds, scrape the STATS admin opcode with
# rlb_stat while the load is still running, and assert a clean outcome —
# zero protocol errors, a non-zero completed count, and a mid-run
# snapshot with non-zero accepts and a parsable Prometheus rendering.
#
# Usage: scripts/serving_smoke.sh [build-dir]      (default: build)
#
# RLB_SMOKE_MIN_RPS (default 0 = disabled) additionally asserts a
# throughput floor on the loadgen summary — a cheap catch for data-plane
# regressions that survive correctness checks (used by the obs-disabled
# CI job, where the serving path runs with zero instrumentation).
set -euo pipefail

BUILD_DIR="${1:-build}"
RLBD="$BUILD_DIR/apps/rlbd"
LOADGEN="$BUILD_DIR/apps/rlb_loadgen"
RLB_STAT="$BUILD_DIR/apps/rlb_stat"
PORT="${RLB_SMOKE_PORT:-4917}"
JSON="$(mktemp /tmp/rlb_smoke.XXXXXX.json)"
STAT_JSON="$(mktemp /tmp/rlb_smoke_stat.XXXXXX.json)"
STAT_PROM="$(mktemp /tmp/rlb_smoke_stat.XXXXXX.prom)"

for bin in "$RLBD" "$LOADGEN" "$RLB_STAT"; do
  if [[ ! -x "$bin" ]]; then
    echo "serving_smoke: missing binary $bin (build first)" >&2
    exit 1
  fi
done

"$RLBD" --policy greedy --m 64 --d 2 --g 4 --port "$PORT" &
RLBD_PID=$!
LOADGEN_PID=""
cleanup() {
  [[ -n "$LOADGEN_PID" ]] && wait "$LOADGEN_PID" 2>/dev/null || true
  kill -INT "$RLBD_PID" 2>/dev/null || true
  wait "$RLBD_PID" 2>/dev/null || true
  rm -f "$JSON" "$STAT_JSON" "$STAT_PROM"
}
trap cleanup EXIT

# Wait for the listener to come up (rlbd prints nothing on success, so
# just retry the connect through loadgen's own error path).
for _ in $(seq 1 50); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
    exec 3>&- 3<&- || true
    break
  fi
  sleep 0.1
done

# ~2 seconds of closed-loop traffic, in the background so we can scrape
# the STATS admin opcode mid-run.  Exit status is collected by `wait`
# below — non-zero on any protocol error fails the script via set -e.
"$LOADGEN" --port "$PORT" --connections 4 --concurrency 64 \
  --requests 200000 --workload uniform --json "$JSON" &
LOADGEN_PID=$!

# Mid-run STATS scrape on a dedicated admin connection: one JSON snapshot
# (machine-checked below) and one Prometheus rendering (must parse).
sleep 0.5
"$RLB_STAT" --port "$PORT" --json > "$STAT_JSON"
"$RLB_STAT" --port "$PORT" --prom > "$STAT_PROM"

wait "$LOADGEN_PID"
LOADGEN_PID=""

RLB_SMOKE_MIN_RPS="${RLB_SMOKE_MIN_RPS:-0}" \
python3 - "$JSON" "$STAT_JSON" "$STAT_PROM" <<'EOF'
import json, os, sys
summary = json.load(open(sys.argv[1]))
completed = int(summary["ok"]) + int(summary["rejected"])
protocol_errors = int(summary["protocol_errors"])
assert protocol_errors == 0, f"protocol_errors = {protocol_errors}"
assert completed > 0, "no requests completed"

# Optional throughput floor (RLB_SMOKE_MIN_RPS, 0 disables): shouts when a
# change tanks serving throughput even though every response is correct.
min_rps = float(os.environ.get("RLB_SMOKE_MIN_RPS", "0"))
rps = float(summary.get("throughput_rps", 0.0))
assert min_rps <= 0 or rps >= min_rps, (
    f"throughput {rps:.0f} rps below RLB_SMOKE_MIN_RPS={min_rps:.0f}")

# The mid-run snapshot must show live traffic: non-zero accepts, no
# server-side protocol errors, and a sane safe-set report.
snap = json.load(open(sys.argv[2]))
assert int(snap["completed"]) > 0, "mid-run snapshot saw no accepts"
assert int(snap["errors"]) == 0, "mid-run snapshot saw errors"
assert "safe_worst_ratio" in snap, "snapshot missing safe-set monitor"

# Prometheus text exposition: every non-comment line is `name{labels} value`
# with a float-parsable value, and the key engine families are present.
names = set()
for line in open(sys.argv[3]):
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        continue
    body, _, value = line.rpartition(" ")
    assert body, f"unparsable exposition line: {line!r}"
    float(value)  # raises if not a number
    names.add(body.split("{", 1)[0])
for family in ("rlb_up", "rlb_engine_submitted_total",
               "rlb_engine_completed_total", "rlb_safe_set_worst_ratio"):
    assert family in names, f"missing metric family {family}"
assert "rlb_engine_latency_us_bucket" in names, "missing latency histogram"

print(f"serving_smoke: OK — {completed} completed at {rps:.0f} rps, "
      f"0 protocol errors, mid-run STATS snapshot + Prometheus rendering "
      f"verified")
EOF

# Graceful drain must answer everything and exit cleanly.
kill -INT "$RLBD_PID"
wait "$RLBD_PID"
trap - EXIT
rm -f "$JSON" "$STAT_JSON" "$STAT_PROM"
echo "serving_smoke: rlbd drained and exited cleanly"
