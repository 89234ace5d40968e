#!/usr/bin/env bash
# Multi-process smoke run for the self-healing repair plane
# (docs/CLUSTER.md): one rlb_router with --repair in front of four rlbd
# backends on loopback (d=2), driven by rlb_loadgen, in five phases:
#
#   phase 1 — healthy cluster baseline: zero errors, zero upstream-down
#             rejects, placement epoch still 0 (nothing to repair).
#   phase 2 — SIGKILL one backend mid-run: the run must complete with
#             bounded, cause-labelled rejections only; then the
#             coordinator must re-replicate every chunk that lost a
#             replica (pending drains to 0, zero failed migrations) and
#             commit the epochs.  Conservation: the bytes the surviving
#             backends ingested must equal the bytes the coordinator
#             accounted as sent, and every backend must converge to the
#             router's placement epoch via the heartbeat piggyback.
#   phase 3 — post-repair run: replication is restored, so a full run
#             must see ZERO upstream-down and ZERO upstream-timeout
#             rejects (the "no data-loss rejections" guarantee).
#   phase 4 — SIGKILL a second backend mid-run: every chunk still has a
#             live replica (phase 2 moved them off the first victim), so
#             no request may be lost; repair then re-replicates onto the
#             two survivors.
#   phase 5 — final run on the twice-repaired cluster: again zero
#             upstream-down / upstream-timeout rejects, zero errors.
#
# The repair plane does not depend on the observability build flavour:
# this script asserts identically with -DRLB_OBS_ENABLED=ON or OFF (CI
# runs it in both jobs).
#
# Usage: scripts/repair_smoke.sh [build-dir]      (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
RLBD="$BUILD_DIR/apps/rlbd"
ROUTER="$BUILD_DIR/apps/rlb_router"
LOADGEN="$BUILD_DIR/apps/rlb_loadgen"
RLB_STAT="$BUILD_DIR/apps/rlb_stat"

BASE_PORT="${RLB_REPAIR_SMOKE_PORT:-4940}"
ROUTER_PORT="$BASE_PORT"
B1_PORT=$((BASE_PORT + 1))
B2_PORT=$((BASE_PORT + 2))
B3_PORT=$((BASE_PORT + 3))
B4_PORT=$((BASE_PORT + 4))
BACKENDS="127.0.0.1:$B1_PORT,127.0.0.1:$B2_PORT,127.0.0.1:$B3_PORT,127.0.0.1:$B4_PORT"

P1_JSON="$(mktemp /tmp/rlb_repair_p1.XXXXXX.json)"
P2_JSON="$(mktemp /tmp/rlb_repair_p2.XXXXXX.json)"
P3_JSON="$(mktemp /tmp/rlb_repair_p3.XXXXXX.json)"
P4_JSON="$(mktemp /tmp/rlb_repair_p4.XXXXXX.json)"
P5_JSON="$(mktemp /tmp/rlb_repair_p5.XXXXXX.json)"
ROUTER_JSON="$(mktemp /tmp/rlb_repair_router.XXXXXX.json)"
CLUSTER_JSON="$(mktemp /tmp/rlb_repair_stat.XXXXXX.json)"
TMPFILES=("$P1_JSON" "$P2_JSON" "$P3_JSON" "$P4_JSON" "$P5_JSON" \
          "$ROUTER_JSON" "$CLUSTER_JSON")

for bin in "$RLBD" "$ROUTER" "$LOADGEN" "$RLB_STAT"; do
  if [[ ! -x "$bin" ]]; then
    echo "repair_smoke: missing binary $bin (build first)" >&2
    exit 1
  fi
done

start_backend() {  # start_backend <port> <backend-id> -> pid
  # Detach stdout/stderr: the caller captures this function with $(...),
  # and an inherited pipe would make the substitution block until the
  # daemon exits.
  "$RLBD" --policy greedy --m 32 --d 2 --g 4 \
    --port "$1" --backend-id "$2" >/dev/null 2>&1 &
  echo $!
}

B1_PID="$(start_backend "$B1_PORT" 1)"
B2_PID="$(start_backend "$B2_PORT" 2)"
B3_PID="$(start_backend "$B3_PORT" 3)"
B4_PID="$(start_backend "$B4_PORT" 4)"
ROUTER_PID=""

# The daemons are not children of this shell (start_backend forks them in
# a command-substitution subshell), so `wait` cannot reap them; poll.
wait_gone() {  # wait_gone <pid>
  for _ in $(seq 1 100); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "repair_smoke: pid $1 did not exit" >&2
  return 1
}

cleanup() {
  for pid in "$ROUTER_PID" "$B1_PID" "$B2_PID" "$B3_PID" "$B4_PID"; do
    [[ -n "$pid" ]] && kill -INT "$pid" 2>/dev/null || true
  done
  for pid in "$ROUTER_PID" "$B1_PID" "$B2_PID" "$B3_PID" "$B4_PID"; do
    [[ -n "$pid" ]] && wait_gone "$pid" || true
  done
  rm -f "${TMPFILES[@]}"
}
trap cleanup EXIT

wait_port() {  # wait_port <port>
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
      exec 3>&- 3<&- || true
      return 0
    fi
    sleep 0.1
  done
  echo "repair_smoke: port $1 never came up" >&2
  return 1
}

wait_port "$B1_PORT"; wait_port "$B2_PORT"
wait_port "$B3_PORT"; wait_port "$B4_PORT"

# Grace is deliberately generous (500ms on a 50ms heartbeat): a live
# backend that misses heartbeats under full load must flap back up before
# the planner treats it as lost, otherwise CI would see spurious
# migrations off healthy nodes.
"$ROUTER" --backends "$BACKENDS" --d 2 --chunks 4096 \
  --heartbeat-ms 50 --timeout-ms 2000 --port "$ROUTER_PORT" \
  --repair --repair-concurrent 4 --repair-bytes-per-sec $((8 * 1024 * 1024)) \
  --repair-chunk-bytes 512 --repair-grace-ms 500 --repair-scan-ms 50 &
ROUTER_PID=$!
wait_port "$ROUTER_PORT"

wait_all_live() {
  for _ in $(seq 1 100); do
    if "$RLB_STAT" --port "$ROUTER_PORT" --json 2>/dev/null \
        | python3 -c '
import json, sys
snap = json.load(sys.stdin)
sys.exit(0 if int(snap["servers_down"]) == 0 and int(snap["shards"]) == 4
         else 1)
' ; then
      return 0
    fi
    sleep 0.1
  done
  echo "repair_smoke: backends never became live at the router" >&2
  return 1
}
wait_all_live

# Repair convergence gate: the coordinator has committed at least
# <min-done> migrations in total and drained its work queue.  Between the
# SIGKILL and the grace expiry done stays below the floor, so the gate
# cannot fire early.
wait_repair_done() {  # wait_repair_done <min-done>
  for _ in $(seq 1 600); do
    if "$RLB_STAT" --port "$ROUTER_PORT" --json 2>/dev/null \
        | python3 -c '
import json, sys
snap = json.load(sys.stdin)
r = snap["repair"]
sys.exit(0 if int(r["migrations_done"]) >= int(sys.argv[1])
         and int(r["chunks_pending"]) == 0
         and int(r["migrations_inflight"]) == 0
         and int(snap["placement_epoch"]) >= 1
         else 1)
' "$1"; then
      return 0
    fi
    sleep 0.1
  done
  echo "repair_smoke: repair never converged (pending stuck?)" >&2
  return 1
}

# Epoch cutover gate: every *reachable* backend must have adopted the
# router's placement epoch from the heartbeat piggyback.
wait_epoch_converged() {  # wait_epoch_converged <endpoints>
  for _ in $(seq 1 100); do
    if "$RLB_STAT" --cluster "$1" --json 2>/dev/null \
        | python3 -c '
import json, sys
cluster = json.load(sys.stdin)
router = [r for r in cluster["endpoints"]
          if r["reachable"] and r["snapshot"]["role"] == "router"]
backends = [r for r in cluster["endpoints"]
            if r["reachable"] and r["snapshot"]["role"] == "backend"]
sys.exit(0 if router and backends and all(
    int(b["snapshot"]["placement_epoch"])
    == int(router[0]["snapshot"]["placement_epoch"]) for b in backends)
         else 1)
'; then
      return 0
    fi
    sleep 0.1
  done
  echo "repair_smoke: backends never adopted the router epoch" >&2
  return 1
}

# ---- phase 1: healthy baseline, epoch still zero -------------------------
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 50000 --workload uniform --json "$P1_JSON"
"$RLB_STAT" --port "$ROUTER_PORT" --json > "$ROUTER_JSON"

python3 - "$P1_JSON" "$ROUTER_JSON" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 1: protocol errors"
assert int(summary["errors"]) == 0, "phase 1: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 50000, f"phase 1: answered {answered} != 50000"
assert int(summary["rejected_upstream_down"]) == 0, \
    "phase 1: upstream-down rejects with every backend live"
router = json.load(open(sys.argv[2]))
assert int(router["placement_epoch"]) == 0, \
    f"phase 1: epoch {router['placement_epoch']} committed with no failure"
assert int(router["repair"]["migrations_done"]) == 0, \
    "phase 1: migrations ran on a healthy cluster"
print(f"repair_smoke: phase 1 OK — {answered} answered, epoch 0, "
      f"no repair activity on a healthy cluster")
EOF

# ---- phase 2: SIGKILL one backend mid-run, then full re-replication ------
# 300k requests keep the run alive well past the 0.4s kill point, so the
# SIGKILL always lands with hops in flight.
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 300000 --workload uniform --json "$P2_JSON" &
LOADGEN_PID=$!
sleep 0.4
kill -9 "$B4_PID"
wait_gone "$B4_PID"
B4_PID=""
wait "$LOADGEN_PID"

kill -0 "$ROUTER_PID" 2>/dev/null || {
  echo "repair_smoke: router died after backend SIGKILL" >&2; exit 1; }

python3 - "$P2_JSON" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 2: protocol errors"
assert int(summary["errors"]) == 0, \
    "phase 2: transport errors (router must answer, not drop)"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 300000, f"phase 2: answered {answered} != 300000"
ok = int(summary["ok"])
assert ok >= answered // 2, f"phase 2: only {ok}/{answered} served"
print(f"repair_smoke: phase 2 kill OK — {ok} served / "
      f"{int(summary['rejected'])} rejected "
      f"(down-cause {summary['rejected_upstream_down']}), no errors")
EOF

wait_repair_done 1
LIVE_ENDPOINTS="127.0.0.1:$ROUTER_PORT,127.0.0.1:$B1_PORT,127.0.0.1:$B2_PORT,127.0.0.1:$B3_PORT"
wait_epoch_converged "$LIVE_ENDPOINTS"
"$RLB_STAT" --cluster "$LIVE_ENDPOINTS" --json > "$CLUSTER_JSON"

python3 - "$CLUSTER_JSON" <<'EOF'
import json, sys
cluster = json.load(open(sys.argv[1]))
rows = [r for r in cluster["endpoints"] if r["reachable"]]
router = next(r["snapshot"] for r in rows if r["snapshot"]["role"] == "router")
backends = [r["snapshot"] for r in rows if r["snapshot"]["role"] == "backend"]
assert len(backends) == 3, f"expected 3 surviving backends, saw {len(backends)}"
rep = router["repair"]
assert int(rep["migrations_failed"]) == 0, \
    f"phase 2: {rep['migrations_failed']} migrations failed"
assert int(rep["migrations_done"]) >= 1 and int(rep["chunks_pending"]) == 0
epoch = int(router["placement_epoch"])
assert epoch >= 1, "phase 2: repair finished without committing an epoch"

# Conservation: every byte the coordinator accounted as sent must have
# been ingested by a surviving backend, and each committed migration must
# appear exactly once as an inbound migration somewhere.
bytes_in = sum(int(b["repair"]["migration_bytes_in"]) for b in backends)
migs_in = sum(int(b["repair"]["migrations_in"]) for b in backends)
assert bytes_in == int(rep["bytes_sent"]), (
    f"conservation: backends ingested {bytes_in} bytes, "
    f"coordinator sent {rep['bytes_sent']}")
assert migs_in == int(rep["migrations_done"]), (
    f"conservation: backends saw {migs_in} inbound migrations, "
    f"coordinator committed {rep['migrations_done']}")
for b in backends:
    assert int(b["placement_epoch"]) == epoch, (
        f"backend {b['backend_id']} on epoch {b['placement_epoch']}, "
        f"router on {epoch}")
print(f"repair_smoke: phase 2 repair OK — {rep['migrations_done']} chunks "
      f"re-replicated ({rep['bytes_sent']} bytes, 0 failed), epoch {epoch} "
      f"adopted by all survivors")
EOF
P2_DONE="$(python3 -c "import json
c = json.load(open('$CLUSTER_JSON'))
r = next(e for e in c['endpoints']
         if e['reachable'] and e['snapshot']['role'] == 'router')
print(r['snapshot']['repair']['migrations_done'])")"

# ---- phase 3: replication restored => zero data-loss rejections ----------
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 100000 --workload uniform --json "$P3_JSON"

python3 - "$P3_JSON" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 3: protocol errors"
assert int(summary["errors"]) == 0, "phase 3: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 100000, f"phase 3: answered {answered} != 100000"
# The whole point of the repair plane: after re-replication no chunk maps
# to the dead backend any more, so none of the allowed reject causes is
# "all replicas down" or an upstream timeout.
assert int(summary["rejected_upstream_down"]) == 0, \
    "phase 3: data-loss rejects after repair completed"
assert int(summary["rejected_upstream_timeout"]) == 0, \
    "phase 3: upstream-timeout rejects after repair completed"
print(f"repair_smoke: phase 3 OK — {int(summary['ok'])} served on the "
      f"repaired cluster, zero data-loss rejects")
EOF

# ---- phase 4: SIGKILL a second backend mid-run ---------------------------
# Phase 2 moved every replica off the first victim, so each chunk now has
# two live replicas among the three survivors; losing one more backend
# leaves every chunk at least one live replica — no data loss, and the
# planner must re-replicate again onto the remaining two.
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 300000 --workload uniform --json "$P4_JSON" &
LOADGEN_PID=$!
sleep 0.4
kill -9 "$B3_PID"
wait_gone "$B3_PID"
B3_PID=""
wait "$LOADGEN_PID"

kill -0 "$ROUTER_PID" 2>/dev/null || {
  echo "repair_smoke: router died after second SIGKILL" >&2; exit 1; }

python3 - "$P4_JSON" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 4: protocol errors"
assert int(summary["errors"]) == 0, "phase 4: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 300000, f"phase 4: answered {answered} != 300000"
ok = int(summary["ok"])
assert ok >= answered // 2, f"phase 4: only {ok}/{answered} served"
print(f"repair_smoke: phase 4 kill OK — {ok} served / "
      f"{int(summary['rejected'])} rejected, no errors")
EOF

wait_repair_done $((P2_DONE + 1))
LIVE_ENDPOINTS="127.0.0.1:$ROUTER_PORT,127.0.0.1:$B1_PORT,127.0.0.1:$B2_PORT"
wait_epoch_converged "$LIVE_ENDPOINTS"

# ---- phase 5: twice-repaired cluster still loses nothing -----------------
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 100000 --workload uniform --json "$P5_JSON"
"$RLB_STAT" --port "$ROUTER_PORT" --json > "$ROUTER_JSON"

python3 - "$P5_JSON" "$ROUTER_JSON" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 5: protocol errors"
assert int(summary["errors"]) == 0, "phase 5: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 100000, f"phase 5: answered {answered} != 100000"
assert int(summary["rejected_upstream_down"]) == 0, \
    "phase 5: data-loss rejects after the second repair"
assert int(summary["rejected_upstream_timeout"]) == 0, \
    "phase 5: upstream-timeout rejects after the second repair"
router = json.load(open(sys.argv[2]))
rep = router["repair"]
assert int(rep["migrations_failed"]) == 0, \
    f"phase 5: {rep['migrations_failed']} migrations failed overall"
assert int(rep["chunks_pending"]) == 0 and int(rep["migrations_inflight"]) == 0
print(f"repair_smoke: phase 5 OK — {int(summary['ok'])} served after two "
      f"losses and two repairs (epoch {router['placement_epoch']}, "
      f"{rep['migrations_done']} total migrations, 0 failed)")
EOF

# Graceful drain: router first, then the two survivors (B3/B4 died above).
kill -INT "$ROUTER_PID"; wait_gone "$ROUTER_PID"; ROUTER_PID=""
for pid in "$B1_PID" "$B2_PID"; do
  kill -INT "$pid"; wait_gone "$pid"
done
B1_PID=""; B2_PID=""
trap - EXIT
rm -f "${TMPFILES[@]}"
echo "repair_smoke: all phases passed; two backend losses self-healed"
