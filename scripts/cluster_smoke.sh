#!/usr/bin/env bash
# Multi-process smoke run for the cluster tier (docs/CLUSTER.md): one
# rlb_router in front of three rlbd backends on loopback, driven by
# rlb_loadgen through the router port, in three phases:
#
#   phase 1 — healthy cluster: >= 10^5 requests, zero protocol errors,
#             and conservation: the loadgen's ok/rejected counts must
#             equal the backends' completed/rejected totals as merged by
#             rlb_stat --cluster.
#   phase 2 — SIGKILL one backend mid-run: every request is still
#             answered (bounded, cause-labelled rejections are allowed;
#             hangs, transport errors, and router crashes are not).
#   phase 3 — restart the killed backend: the router must mark it up
#             again (probation) and serve a full run with zero hop-level
#             rejects; the router's cumulative completed total must equal
#             the sum of the three phases' ok counts.
#   phase 4 — distributed tracing under failure: a paced traced run
#             (wire contexts + client span file) with another mid-run
#             SIGKILL, sent while the frozen backend holds hops in flight;
#             rlb_stat --spans must merge client, router, and backend
#             spans into cross-process trees that include retried hops,
#             every emitted JSONL file must parse line by line, and a
#             second scrape must find the same spans again (span reads are
#             non-destructive).  A second traced loadgen is SIGTERMed
#             mid-run to check the flush-on-drain path leaves a complete
#             span file behind.
#
# RLB_CLUSTER_SMOKE_OBS_OFF=1 relaxes phase 4 for builds with the obs
# plane compiled out (-DRLB_OBS_ENABLED=OFF): recorders are empty by
# design there, so only the span channel, the merger exit status, and the
# file formats are asserted.
#
# Usage: scripts/cluster_smoke.sh [build-dir]      (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
RLBD="$BUILD_DIR/apps/rlbd"
ROUTER="$BUILD_DIR/apps/rlb_router"
LOADGEN="$BUILD_DIR/apps/rlb_loadgen"
RLB_STAT="$BUILD_DIR/apps/rlb_stat"
OBS_OFF="${RLB_CLUSTER_SMOKE_OBS_OFF:-0}"

BASE_PORT="${RLB_CLUSTER_SMOKE_PORT:-4930}"
ROUTER_PORT="$BASE_PORT"
B1_PORT=$((BASE_PORT + 1))
B2_PORT=$((BASE_PORT + 2))
B3_PORT=$((BASE_PORT + 3))
BACKENDS="127.0.0.1:$B1_PORT,127.0.0.1:$B2_PORT,127.0.0.1:$B3_PORT"

P1_JSON="$(mktemp /tmp/rlb_cluster_p1.XXXXXX.json)"
P2_JSON="$(mktemp /tmp/rlb_cluster_p2.XXXXXX.json)"
P3_JSON="$(mktemp /tmp/rlb_cluster_p3.XXXXXX.json)"
P4_JSON="$(mktemp /tmp/rlb_cluster_p4.XXXXXX.json)"
CLUSTER_JSON="$(mktemp /tmp/rlb_cluster_stat.XXXXXX.json)"
ROUTER_JSON="$(mktemp /tmp/rlb_cluster_router.XXXXXX.json)"
SPAN_FILE="$(mktemp /tmp/rlb_cluster_spans.XXXXXX.jsonl)"
SPAN_FILE2="$(mktemp /tmp/rlb_cluster_spans2.XXXXXX.jsonl)"
MERGED_JSONL="$(mktemp /tmp/rlb_cluster_merged.XXXXXX.jsonl)"
MERGED2_JSONL="$(mktemp /tmp/rlb_cluster_merged2.XXXXXX.jsonl)"
CHROME_JSON="$(mktemp /tmp/rlb_cluster_chrome.XXXXXX.json)"
TRACE_SUMMARY="$(mktemp /tmp/rlb_cluster_trace.XXXXXX.txt)"
EVENTS_JSON="$(mktemp /tmp/rlb_cluster_events.XXXXXX.json)"
FLIGHT_JSON="$(mktemp /tmp/rlb_cluster_flight.XXXXXX.json)"
TMPFILES=("$P1_JSON" "$P2_JSON" "$P3_JSON" "$P4_JSON" "$CLUSTER_JSON" \
          "$ROUTER_JSON" "$SPAN_FILE" "$SPAN_FILE2" "$MERGED_JSONL" \
          "$MERGED2_JSONL" "$CHROME_JSON" "$TRACE_SUMMARY" "$EVENTS_JSON" \
          "$FLIGHT_JSON")

for bin in "$RLBD" "$ROUTER" "$LOADGEN" "$RLB_STAT"; do
  if [[ ! -x "$bin" ]]; then
    echo "cluster_smoke: missing binary $bin (build first)" >&2
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
ROUTER_PID=""

# The daemons are not children of this shell (start_backend forks them in a
# command-substitution subshell), so `wait` cannot reap them; poll instead.
wait_gone() {  # wait_gone <pid>
  for _ in $(seq 1 100); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "cluster_smoke: pid $1 did not exit after SIGINT" >&2
  return 1
}

cleanup() {
  for pid in "$ROUTER_PID" "$B1_PID" "$B2_PID" "$B3_PID"; do
    [[ -n "$pid" ]] && kill -INT "$pid" 2>/dev/null || true
  done
  for pid in "$ROUTER_PID" "$B1_PID" "$B2_PID" "$B3_PID"; do
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
  echo "cluster_smoke: port $1 never came up" >&2
  return 1
}

wait_port "$B1_PORT"; wait_port "$B2_PORT"; wait_port "$B3_PORT"

# 512 chunks (not 4096): a SIGKILL makes the repair plane journal ~2-3
# events per affected chunk, and the whole incident (both phase-2 and
# phase-4 kills) must fit inside the 4096-event journal ring for the
# incident-story scrape below to see the MEMBER_DOWN edge.
"$ROUTER" --backends "$BACKENDS" --d 2 --chunks 512 \
  --heartbeat-ms 50 --timeout-ms 2000 --port "$ROUTER_PORT" \
  --repair --repair-grace-ms 200 --flight-recorder "$FLIGHT_JSON" &
ROUTER_PID=$!
wait_port "$ROUTER_PORT"

# Readiness gate: the router's snapshot carries one row per backend with
# `down` = (health != up); wait until every backend is marked live so the
# healthy-phase assertions are deterministic.
wait_all_live() {
  for _ in $(seq 1 100); do
    if "$RLB_STAT" --port "$ROUTER_PORT" --json 2>/dev/null \
        | python3 -c '
import json, sys
snap = json.load(sys.stdin)
sys.exit(0 if int(snap["servers_down"]) == 0 and int(snap["shards"]) == 3
         else 1)
' ; then
      return 0
    fi
    sleep 0.1
  done
  echo "cluster_smoke: backends never became live at the router" >&2
  return 1
}
wait_all_live

# ---- phase 1: healthy cluster, conservation check ------------------------
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 100000 --workload uniform --json "$P1_JSON"

"$RLB_STAT" --cluster "127.0.0.1:$ROUTER_PORT,$BACKENDS" --json \
  > "$CLUSTER_JSON"

python3 - "$P1_JSON" "$CLUSTER_JSON" "$OBS_OFF" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 1: protocol errors"
assert int(summary["errors"]) == 0, "phase 1: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 100000, f"phase 1: answered {answered} != 100000"
assert int(summary["rejected_upstream_down"]) == 0, \
    "phase 1: upstream-down rejects with every backend live"

# Conservation: what the client saw must equal what the backends counted,
# as merged from every node's STATS snapshot by rlb_stat --cluster.
cluster = json.load(open(sys.argv[2]))
for row in cluster["endpoints"]:
    assert row["reachable"], f"unreachable endpoint {row['endpoint']}"
totals = cluster["backend_totals"]
assert int(totals["completed"]) == int(summary["ok"]), (
    f"conservation: backends completed {totals['completed']} "
    f"!= loadgen ok {summary['ok']}")
assert int(totals["rejected"]) == int(summary["rejected"]), (
    f"conservation: backends rejected {totals['rejected']} "
    f"!= loadgen rejected {summary['rejected']}")
assert int(totals["errors"]) == 0, "backends saw errors"
roles = sorted(r["snapshot"]["role"] for r in cluster["endpoints"])
assert roles == ["backend", "backend", "backend", "router"], roles

# Windowed metrics: scraped right after the run, every node's trailing
# window must still cover the burst — nonzero span and per-window counts
# next to the lifetime totals.  (Compiled out with the obs plane off.)
if sys.argv[3] != "1":
    for row in cluster["endpoints"]:
        win = row["snapshot"]["window"]
        assert int(win["span_ms"]) > 0, f"{row['endpoint']}: empty window"
        assert int(win["submitted"]) > 0, \
            f"{row['endpoint']}: window saw no traffic just after the run"
        if row["snapshot"]["role"] == "backend":
            assert float(win["latency_p99_us"]) > 0, \
                f"{row['endpoint']}: windowed p99 empty just after the run"
print(f"cluster_smoke: phase 1 OK — {answered} answered, "
      f"conservation holds ({totals['completed']} completed)")
EOF
PHASE1_OK="$(python3 -c "import json; print(json.load(open('$P1_JSON'))['ok'])")"

# ---- phase 2: SIGKILL one backend mid-run --------------------------------
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 150000 --workload uniform --json "$P2_JSON" &
LOADGEN_PID=$!
sleep 0.4
kill -9 "$B3_PID"
wait_gone "$B3_PID"
B3_PID=""
wait "$LOADGEN_PID"

kill -0 "$ROUTER_PID" 2>/dev/null || {
  echo "cluster_smoke: router died after backend SIGKILL" >&2; exit 1; }

python3 - "$P2_JSON" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 2: protocol errors"
assert int(summary["errors"]) == 0, \
    "phase 2: transport errors (router must answer, not drop)"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 150000, f"phase 2: answered {answered} != 150000"
# Bounded degradation: with d=2 over three backends every chunk keeps a
# live candidate, so the vast majority must still be served; only hops in
# flight at the kill (plus the mark-down window) may surface as rejects.
ok = int(summary["ok"])
assert ok >= answered // 2, f"phase 2: only {ok}/{answered} served"
print(f"cluster_smoke: phase 2 OK — backend SIGKILL mid-run, "
      f"{ok} served / {int(summary['rejected'])} rejected "
      f"(down-cause {summary['rejected_upstream_down']}, "
      f"timeout-cause {summary['rejected_upstream_timeout']}), no errors")
EOF
PHASE2_OK="$(python3 -c "import json; print(json.load(open('$P2_JSON'))['ok'])")"

# ---- phase 3: restart the backend, full recovery -------------------------
B3_PID="$(start_backend "$B3_PORT" 3)"
wait_port "$B3_PORT"
wait_all_live

"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --concurrency 32 \
  --requests 100000 --workload uniform --json "$P3_JSON"
# Membership is eventually consistent: a heartbeat reply that missed its
# deadline under full load can leave a backend transiently marked down
# (masked by d=2, zero client impact).  Let the table settle before the
# final scrape; the conservation counters below are cumulative, so waiting
# does not change them.
wait_all_live
"$RLB_STAT" --port "$ROUTER_PORT" --json > "$ROUTER_JSON"

python3 - "$P3_JSON" "$ROUTER_JSON" "$PHASE1_OK" "$PHASE2_OK" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 3: protocol errors"
assert int(summary["errors"]) == 0, "phase 3: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 100000, f"phase 3: answered {answered} != 100000"
assert int(summary["rejected_upstream_down"]) == 0, \
    "phase 3: upstream-down rejects after recovery"
assert int(summary["rejected_upstream_timeout"]) == 0, \
    "phase 3: upstream-timeout rejects after recovery"

# Router-side conservation across all three phases: its cumulative
# completed total (relayed OK responses) must equal the sum of what the
# three loadgen runs counted as ok — nothing double-relayed, nothing lost.
router = json.load(open(sys.argv[2]))
expected_ok = int(sys.argv[3]) + int(sys.argv[4]) + int(summary["ok"])
assert router["role"] == "router", router["role"]
assert int(router["completed"]) == expected_ok, (
    f"router relayed {router['completed']} ok responses, "
    f"loadgen counted {expected_ok}")
print(f"cluster_smoke: phase 3 OK — backend rejoined after probation, "
      f"router conservation holds ({expected_ok} relayed ok)")
EOF

# ---- journal incident story + flight recorder ----------------------------
# The router's control-plane event journal must tell phases 2-3 back as a
# story: the SIGKILL surfaces as MEMBER_DOWN, the repair plane migrates the
# dead backend's chunks (MIGRATE_DONE) and commits a new placement epoch
# (EPOCH_COMMIT) after it, the watchdog raises backend_down after the
# mark-down and clears it after the phase-3 recovery — all in journal
# sequence order, scraped over the EVENTS opcode by rlb_stat --events.
if [[ "$OBS_OFF" != "1" ]]; then
  STORY_OK=0
  for _ in $(seq 1 60); do
    "$RLB_STAT" --port "$ROUTER_PORT" --events --json > "$EVENTS_JSON" \
      2>/dev/null || true
    if python3 - "$EVENTS_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = sorted(doc["events"], key=lambda e: int(e["seq"]))

def first(pred, after=0):
    for e in events:
        if int(e["seq"]) > after and pred(e):
            return int(e["seq"])
    return None

# Any DOWN edge that anchors the full chain counts (load can add transient
# mark-down/up pairs around the real incident).
for e in events:
    if e["type"] != "MEMBER_DOWN":
        continue
    down = int(e["seq"])
    migrate = first(lambda x: x["type"] == "MIGRATE_DONE", down)
    if migrate is None:
        continue
    epoch = first(lambda x: x["type"] == "EPOCH_COMMIT", migrate)
    raised = first(
        lambda x: x["type"] == "ALERT_RAISED"
        and x["detail"] == "backend_down", down)
    if epoch is None or raised is None:
        continue
    cleared = first(
        lambda x: x["type"] == "ALERT_CLEARED"
        and x["detail"] == "backend_down", raised)
    up = first(lambda x: x["type"] == "MEMBER_UP", down)
    if cleared is not None and up is not None:
        print(f"cluster_smoke: journal OK — DOWN#{down} -> "
              f"MIGRATE_DONE#{migrate} -> EPOCH_COMMIT#{epoch}; "
              f"alert raised#{raised} -> UP#{up} -> cleared#{cleared}")
        sys.exit(0)
sys.exit(1)
EOF
    then STORY_OK=1; break; fi
    sleep 0.25
  done
  if [[ "$STORY_OK" != "1" ]]; then
    echo "cluster_smoke: journal never told the incident story" >&2
    "$RLB_STAT" --port "$ROUTER_PORT" --events >&2 || true
    exit 1
  fi
fi

# Flight recorder: SIGQUIT must dump a parseable post-mortem JSON (journal
# tail + stats snapshot) without killing the router.
kill -QUIT "$ROUTER_PID"
FLIGHT_OK=0
for _ in $(seq 1 50); do
  if python3 - "$FLIGHT_JSON" "$OBS_OFF" <<'EOF' 2>/dev/null
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["flight_record"] == 1
assert doc["role"] == "router"
assert isinstance(doc["events"], list)
assert isinstance(doc["snapshot"], dict)
if sys.argv[2] != "1":
    # The dump keeps the journal's last 512 events, so the phase-2
    # MEMBER_DOWN may have scrolled past; a busy cluster just needs a
    # non-empty tail of well-formed events.
    assert len(doc["events"]) > 0, "flight record has an empty journal tail"
    assert all("seq" in e and "type" in e for e in doc["events"])
EOF
  then FLIGHT_OK=1; break; fi
  sleep 0.1
done
if [[ "$FLIGHT_OK" != "1" ]]; then
  echo "cluster_smoke: SIGQUIT produced no parseable flight record" >&2
  exit 1
fi
kill -0 "$ROUTER_PID" 2>/dev/null || {
  echo "cluster_smoke: router died on SIGQUIT" >&2; exit 1; }
echo "cluster_smoke: flight recorder OK — SIGQUIT dumped, router alive"

# ---- phase 4: distributed tracing under a mid-run SIGKILL ----------------
# Every request carries a wire trace context (--trace-sample > 0); ~5% get
# the head-sampling flag, failed hops are kept by the recorders regardless
# of sampling, and the router escalates sampling on retries.  B2 is
# SIGKILLed mid-run, so traces that had a hop in flight to it must show
# the failed hop plus its retry in the merged tree.  (B2, not B3: the
# phase-2 repair migrated every chunk referencing B3 onto B1/B2 and
# nothing rebalances back on rejoin, so the rejoined B3 carries no
# traffic — killing it again would fail nothing.)  The dead B2 endpoint
# stays on the rlb_stat --spans scrape list to exercise the partial-failure
# path (the merger must warn and continue).
router_completed() {
  "$RLB_STAT" --port "$ROUTER_PORT" --json 2>/dev/null \
    | python3 -c \
        'import json, sys; print(int(json.load(sys.stdin)["completed"]))' \
    2>/dev/null || echo 0
}

# In-flight hops from the router to B2: its per-backend row (shard 1).
b2_inflight() {
  "$RLB_STAT" --port "$ROUTER_PORT" --prom 2>/dev/null \
    | awk '$1 == "rlb_engine_inflight{shard=\"1\"}" { n = $2 }
           END { print n + 0 }' || echo 0
}

# Alive and not yet reaped: a finished child stays a zombie until `wait`.
running() {  # running <pid>
  local state
  state="$(ps -o stat= -p "$1" 2>/dev/null)" || return 1
  [[ -n "$state" && "$state" != Z* ]]
}

# The SIGKILL must land while the loadgen still sends and hops to B2 are in
# flight, or no hop fails over.  The loadgen is paced (--rate) so the run
# lasts ~3 s however fast the data path is.  Once the router's completed
# counter passes a mark, B2 is frozen (SIGSTOP), so the hops the router
# sends it stay in flight instead of being answered within microseconds;
# the SIGKILL follows as soon as the router reports one.
ROUTER_DONE="$(router_completed)"
"$LOADGEN" --port "$ROUTER_PORT" --connections 4 --rate 50000 \
  --requests 150000 --workload uniform --trace-sample 0.05 \
  --span-file "$SPAN_FILE" --json "$P4_JSON" &
LOADGEN_PID=$!
KILL_AT=$((ROUTER_DONE + 30000))
for _ in $(seq 1 500); do
  if (( $(router_completed) >= KILL_AT )); then break; fi
  sleep 0.02
done
kill -STOP "$B2_PID"
for _ in $(seq 1 100); do
  if (( $(b2_inflight) > 0 )); then break; fi
  sleep 0.01
done
kill -9 "$B2_PID"
if ! running "$LOADGEN_PID"; then
  echo "cluster_smoke: phase 4: the loadgen was no longer running when B2" \
    "was SIGKILLed, so no hop could fail over" >&2
  exit 1
fi
wait_gone "$B2_PID"
B2_PID=""
wait "$LOADGEN_PID"

"$RLB_STAT" --spans --cluster "127.0.0.1:$ROUTER_PORT,$BACKENDS" \
  --span-file "$SPAN_FILE" --out "$MERGED_JSONL" --chrome "$CHROME_JSON" \
  --print 1 | tee "$TRACE_SUMMARY"
# Scrape again: reads are non-destructive, so the spans are all still there.
"$RLB_STAT" --spans --cluster "127.0.0.1:$ROUTER_PORT,$BACKENDS" \
  --span-file "$SPAN_FILE" --out "$MERGED2_JSONL" --print 0 >/dev/null

python3 - "$P4_JSON" "$TRACE_SUMMARY" "$MERGED_JSONL" "$CHROME_JSON" \
    "$SPAN_FILE" "$OBS_OFF" "$MERGED2_JSONL" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert int(summary["protocol_errors"]) == 0, "phase 4: protocol errors"
assert int(summary["errors"]) == 0, "phase 4: transport errors"
answered = int(summary["ok"]) + int(summary["rejected"])
assert answered == 150000, f"phase 4: answered {answered} != 150000"

line = next(l for l in open(sys.argv[2]) if l.startswith("rlb_stat: merged"))
fields = dict(kv.split("=") for kv in line.split()[2:])
obs_off = sys.argv[6] == "1"

# Every emitted file must parse on its own terms: the merged output line
# by line (JSONL), the Chrome trace as one document.
merged = 0
for raw in open(sys.argv[3]):
    if raw.strip():
        json.loads(raw)
        merged += 1
chrome = json.load(open(sys.argv[4]))
assert isinstance(chrome["traceEvents"], list), "phase 4: bad Chrome trace"

# The second scrape must return the same merged spans.  Repair spans are
# left out of the comparison: the repair plane is still healing B2's
# chunks and may record more of them between the two scrapes.
def request_spans(path):
    return sorted(rec["span_id"] for rec in map(json.loads, open(path))
                  if not rec["name"].startswith("repair."))
first, second = request_spans(sys.argv[3]), request_spans(sys.argv[7])
assert first == second, \
    f"phase 4: second scrape saw {len(second)} spans, first {len(first)}"
client_spans = 0
first_line = None
for raw in open(sys.argv[5]):
    if raw.strip():
        rec = json.loads(raw)
        if first_line is None:
            first_line = rec
        if "span_id" in rec:
            client_spans += 1

if obs_off:
    # Recorders are compiled out: the channel must still answer and the
    # files must still be well-formed, but they stay empty.
    print(f"cluster_smoke: phase 4 OK (obs-off) — span channel answered, "
          f"merger emitted {merged} spans, all files parse")
else:
    assert first_line is not None and first_line.get("anchor") == 1, \
        "phase 4: client span file missing its clock anchor line"
    assert client_spans >= 1, "phase 4: loadgen recorded no client spans"
    assert merged == int(fields["spans"]), \
        f"phase 4: merged file has {merged} spans, summary says {fields['spans']}"
    assert int(fields["traces"]) >= 1, line
    assert int(fields["cross_process"]) >= 1, \
        f"phase 4: no cross-process span trees: {line}"
    assert int(fields["retried"]) >= 1, \
        f"phase 4: no trace shows a retried hop after the SIGKILL: {line}"
    print(f"cluster_smoke: phase 4 OK — {fields['traces']} merged traces "
          f"across {fields['processes']} processes "
          f"({fields['cross_process']} cross-process, "
          f"{fields['retried']} with retried hops; a second scrape saw "
          f"the same {len(first)} request spans)")
EOF

# SIGTERM drain regression: a tracing client killed mid-run must still
# leave a complete, parseable span file (the handlers flush via
# write-to-temp + rename, so a reader never sees a truncated record).
"$LOADGEN" --port "$ROUTER_PORT" --connections 2 --concurrency 16 \
  --requests 100000000 --workload uniform --trace-sample 0.5 \
  --span-file "$SPAN_FILE2" >/dev/null &
LOADGEN_PID=$!
sleep 0.5
kill -TERM "$LOADGEN_PID"
wait "$LOADGEN_PID"

python3 - "$SPAN_FILE2" "$OBS_OFF" <<'EOF'
import json, sys
lines = 0
spans = 0
for raw in open(sys.argv[1]):
    if raw.strip():
        json.loads(raw)
        lines += 1
        spans += 1 if "span_id" in json.loads(raw) else 0
assert lines >= 1, "SIGTERM drain: span file is empty (no anchor line)"
if sys.argv[2] != "1":
    assert spans >= 1, "SIGTERM drain: no spans survived the flush"
print(f"cluster_smoke: SIGTERM drain OK — span file intact "
      f"({spans} spans, every line parses)")
EOF

# Graceful drain: router first (rejects nothing new), then the backends
# (B2 died in phase 4 and stays down).
kill -INT "$ROUTER_PID"; wait_gone "$ROUTER_PID"; ROUTER_PID=""
for pid in "$B1_PID" "$B3_PID"; do
  kill -INT "$pid"; wait_gone "$pid"
done
B1_PID=""; B3_PID=""
trap - EXIT
rm -f "${TMPFILES[@]}"
echo "cluster_smoke: all phases passed; router and backends drained cleanly"
