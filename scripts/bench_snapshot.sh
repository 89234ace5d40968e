#!/usr/bin/env bash
# Record a performance snapshot: run bench_micro (google-benchmark hot
# paths) and bench_cluster (E23 router hop overhead) at fixed parameters
# and merge the JSON documents into
# BENCH_<date>.json at the repo root.  Intended for the non-gating CI job
# so perf history accumulates as artifacts; also handy before/after a
# local optimisation.
#
# Usage: scripts/bench_snapshot.sh [build-dir] [out-path]
#   build-dir  default: build
#   out-path   default: BENCH_$(date -u +%Y%m%d).json in the repo root
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${2:-$REPO_ROOT/BENCH_$(date -u +%Y%m%d).json}"
MICRO="$BUILD_DIR/bench/bench_micro"
CLUSTER="$BUILD_DIR/bench/bench_cluster"

for bin in "$MICRO" "$CLUSTER"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_snapshot: missing binary $bin (build first)" >&2
    exit 1
  fi
done

MICRO_JSON="$(mktemp /tmp/rlb_bench_micro.XXXXXX.json)"
CLUSTER_JSON="$(mktemp /tmp/rlb_bench_cluster.XXXXXX.json)"
OUT_TMP=""
trap 'rm -f "$MICRO_JSON" "$CLUSTER_JSON" ${OUT_TMP:+"$OUT_TMP"}' EXIT

# Fixed parameters so snapshots stay comparable run to run.
echo "bench_snapshot: running bench_micro..." >&2
"$MICRO" --json "$MICRO_JSON" > /dev/null

echo "bench_snapshot: running bench_cluster..." >&2
"$CLUSTER" --json "$CLUSTER_JSON" \
  --requests 100000 --connections 4 --concurrency 32 \
  > /dev/null

# Provenance: a snapshot compared weeks later (or pulled from a CI
# artifact store) must say which commit, machine, and moment produced it.
GIT_HEAD="$(git -C "$REPO_ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=0
git -C "$REPO_ROOT" diff --quiet HEAD 2>/dev/null || GIT_DIRTY=1
HOST="$(hostname 2>/dev/null || echo unknown)"
NPROC="$(nproc 2>/dev/null || echo 0)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Merge into the snapshot document.  Write via a temp file + rename so a
# crash mid-merge never leaves a truncated BENCH_*.json for the diff job
# (or a committed baseline) to trip over.
OUT_TMP="$OUT.tmp.$$"
python3 - "$MICRO_JSON" "$CLUSTER_JSON" "$OUT_TMP" \
  "$GIT_HEAD" "$GIT_DIRTY" "$HOST" "$NPROC" "$STAMP" <<'EOF'
import json, sys

micro = json.load(open(sys.argv[1]))
cluster = json.load(open(sys.argv[2]))

snapshot = {
    "schema": "rlb-bench-snapshot-v1",
    "provenance": {
        "git_head": sys.argv[4],
        "git_dirty": sys.argv[5] == "1",
        "hostname": sys.argv[6],
        "nproc": int(sys.argv[7]),
        "timestamp_utc": sys.argv[8],
    },
    # google-benchmark's context block carries host/clock/build info.
    "context": micro.get("context", {}),
    "micro": [
        {k: b.get(k) for k in
         ("name", "iterations", "real_time", "cpu_time", "time_unit",
          "items_per_second") if k in b}
        for b in micro.get("benchmarks", [])
    ],
    "cluster": cluster,
}
with open(sys.argv[3], "w") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")
print(f"bench_snapshot: merged "
      f"{len(snapshot['micro'])} micro benchmarks, "
      f"{len(cluster.get('tables', []))} cluster tables")
EOF
mv "$OUT_TMP" "$OUT"
echo "bench_snapshot: wrote $OUT" >&2
