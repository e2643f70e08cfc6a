#!/usr/bin/env bash
# End-to-end smoke of delta-server: build it, start it, submit a small
# multi-axis scenario to the /v2 async job API, poll the job to completion,
# check the SSE stream and a /v1 request, run a two-point simulation sweep
# (one group: the points share each layer's engine pass), check that a sim
# config whose L2 cannot be built answers 400 and the server keeps serving,
# then scrape /metrics and assert the request/job/memo counters moved,
# exercise the 413 oversize-body path, and rerun with tight limits to
# exercise 429 load shedding. Run by the CI server-e2e job and usable
# locally: ./scripts/server_e2e.sh
set -Eeuo pipefail
# Fail fast and name the offender: the ERR trap fires before the EXIT
# cleanup, so the log ends with the exact line and command that broke.
trap 'echo "server-e2e: FAIL at ${BASH_SOURCE[0]}:$LINENO: $BASH_COMMAND" >&2' ERR

ADDR="${ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/delta-server"

go build -o "$BIN" ./cmd/delta-server

"$BIN" -addr "$ADDR" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null

# Submit a 2 networks x 2 devices x 2 models scenario job.
ID=$(curl -fsS "$BASE/v2/jobs" -d '{"scenario": {
  "name": "e2e",
  "workloads": [{"network": "alexnet"}, {"network": "googlenet"}],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "models": ["delta", "prior"],
  "batches": [16]
}}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "server-e2e: submitted job $ID"

STATUS=running
for _ in $(seq 1 150); do
  STATUS=$(curl -fsS "$BASE/v2/jobs/$ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
  [ "$STATUS" != running ] && break
  sleep 0.2
done
if [ "$STATUS" != done ]; then
  echo "server-e2e: job ended as '$STATUS'" >&2
  curl -fsS "$BASE/v2/jobs/$ID" >&2 || true
  exit 1
fi

# The finished job must carry all 8 point results.
curl -fsS "$BASE/v2/jobs/$ID" | python3 -c '
import json, sys
j = json.load(sys.stdin)
assert j["done"] == j["total"] == 8, (j["done"], j["total"])
assert len(j["results"]) == 8
for i, r in enumerate(j["results"]):
    assert r["index"] == i, "results out of order"
    assert r["result"]["total_seconds"] > 0
print("server-e2e: job results OK")
'

# The SSE stream of a finished job replays every result then 'done'.
EVENTS=$(curl -fsS --max-time 10 "$BASE/v2/jobs/$ID/events" | grep -c '^event: result' || true)
if [ "$EVENTS" != 8 ]; then
  echo "server-e2e: SSE replayed $EVENTS results, want 8" >&2
  exit 1
fi
echo "server-e2e: SSE OK"

# /v1 still answers synchronously through the same scenario path.
curl -fsS "$BASE/v1/network" -d '{"network": "alexnet", "device": "V100"}' \
  | python3 -c 'import json,sys; assert json.load(sys.stdin)["total_seconds"] > 0'
echo "server-e2e: /v1 OK"

# A simulation sweep: two sim configs over one small layer that differ only
# in L2 associativity, so the stream runs them as one group, one engine
# pass serving both points.
SIM_ID=$(curl -fsS "$BASE/v2/jobs" -d '{"scenario": {
  "name": "e2e-sim",
  "workloads": [{"name": "tiny", "layers": [{"b": 1, "ci": 16, "hi": 8, "co": 32, "hf": 3, "pad": 1}]}],
  "devices": [{"name": "TITAN Xp"}],
  "sim_configs": [{"max_waves": 2}, {"l2_ways": 8, "max_waves": 2}]
}}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
STATUS=running
for _ in $(seq 1 150); do
  STATUS=$(curl -fsS "$BASE/v2/jobs/$SIM_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
  [ "$STATUS" != running ] && break
  sleep 0.2
done
if [ "$STATUS" != done ]; then
  echo "server-e2e: sim job ended as '$STATUS'" >&2
  curl -fsS "$BASE/v2/jobs/$SIM_ID" >&2 || true
  exit 1
fi
echo "server-e2e: sim job OK"

# A sim config whose L2 rounds down to zero sets is rejected at submit
# (400), and the server is still up afterwards.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v2/jobs" -d '{"scenario": {
  "workloads": [{"network": "alexnet"}],
  "sim_configs": [{"l2_ways": 100000}]
}}')
if [ "$STATUS" != 400 ]; then
  echo "server-e2e: unbuildable L2 answered $STATUS, want 400" >&2
  exit 1
fi
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")
if [ "$STATUS" != 200 ]; then
  echo "server-e2e: /healthz answered $STATUS after the rejected job, want 200" >&2
  exit 1
fi
echo "server-e2e: bad sim geometry 400 OK"

# The /metrics scrape must show the traffic above: request counters and
# latency histograms moved, the job sweep's 8 scenario points were counted,
# and the simulation memo did work (only the sim job above reaches it:
# analytical requests are not memoized).
curl -fsS "$BASE/metrics" | python3 -c '
import sys
lines = [l for l in sys.stdin if l.strip() and not l.startswith("#")]
metrics = {}
for l in lines:
    name, _, value = l.rpartition(" ")
    metrics[name] = float(value)

def total(prefix):
    return sum(v for k, v in metrics.items() if k.startswith(prefix))

assert total("delta_http_requests_total") > 0, "no requests counted"
submit = "delta_http_requests_total{route=\"/v2/jobs\",method=\"POST\",code=\"202\"}"
assert metrics.get(submit, 0) >= 1, "job submit not counted"
assert total("delta_http_request_duration_seconds_count") > 0, "no latencies observed"
assert metrics.get("delta_scenario_points_total", 0) >= 10, "scenario points not counted"
assert metrics.get("delta_pipeline_cache_misses_total", 0) > 0, "pipeline cache never exercised"
assert metrics.get("delta_jobs_stored", -1) >= 1, "job store gauge missing"
print("server-e2e: /metrics OK (%d series)" % len(metrics))
'

# An oversized body answers 413, not 400 (and never a dropped connection).
STATUS=$(python3 -c 'print("{\"network\": \"" + "x" * (1 << 21) + "\"}")' \
  | curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/network" --data-binary @-)
if [ "$STATUS" != 413 ]; then
  echo "server-e2e: oversize body answered $STATUS, want 413" >&2
  exit 1
fi
echo "server-e2e: 413 OK"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT

# Rerun with tight limits: past the burst the server sheds with 429 +
# Retry-After while /healthz stays open.
"$BIN" -addr "$ADDR" -rate-limit 0.1 -rate-burst 2 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

for i in 1 2; do
  STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/devices")
  if [ "$STATUS" != 200 ]; then
    echo "server-e2e: burst request $i answered $STATUS, want 200" >&2
    exit 1
  fi
done
HDRS=$(mktemp)
STATUS=$(curl -s -o /dev/null -D "$HDRS" -w '%{http_code}' "$BASE/v1/devices")
if [ "$STATUS" != 429 ] || ! grep -qi '^retry-after:' "$HDRS"; then
  echo "server-e2e: past-burst request answered $STATUS, want 429 + Retry-After" >&2
  cat "$HDRS" >&2
  exit 1
fi
curl -fsS "$BASE/healthz" >/dev/null  # probes survive shedding
# Plain grep drains the whole scrape; grep -q exits on first match and a
# still-writing curl would fail the pipeline with SIGPIPE under pipefail.
curl -fsS "$BASE/metrics" | grep 'delta_http_shed_total{reason="rate"}' >/dev/null || {
  echo "server-e2e: shed counter missing from /metrics" >&2
  exit 1
}
echo "server-e2e: 429 OK"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT

# Crash-recovery leg: start with -data-dir, kill -9 mid-sweep, restart on
# the same directory, and assert the job resumes from its last persisted
# point and converges to the same results an uninterrupted run produces.
DATA_DIR=$(mktemp -d)
"$BIN" -addr "$ADDR" -data-dir "$DATA_DIR" -fsync always &
SERVER_PID=$!
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

# A multi-point simulation sweep slow enough to be mid-flight when the
# process dies: several L2 configurations over a non-trivial layer.
CRASH_SCENARIO='{"scenario": {
  "name": "e2e-crash",
  "workloads": [{"name": "mid", "layers": [{"b": 8, "ci": 128, "hi": 56, "co": 128, "hf": 3, "pad": 1}]}],
  "devices": [{"name": "TITAN Xp"}],
  "sim_configs": [{"max_waves": 24}, {"l2_ways": 8, "max_waves": 24}, {"l1_ways": 8, "max_waves": 24},
                  {"max_waves": 32}, {"l2_ways": 8, "max_waves": 32}, {"row_major_scheduling": true, "max_waves": 32}]
}}'
CRASH_ID=$(curl -fsS "$BASE/v2/jobs" -d "$CRASH_SCENARIO" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "server-e2e: submitted crash job $CRASH_ID"

# Wait for at least one persisted result, then kill -9 while running.
DONE=0
for _ in $(seq 1 200); do
  read -r DONE STATUS < <(curl -fsS "$BASE/v2/jobs/$CRASH_ID" \
    | python3 -c 'import json,sys; j=json.load(sys.stdin); print(j["done"], j["status"])')
  [ "$DONE" -ge 1 ] && break
  [ "$STATUS" != running ] && break
  sleep 0.05
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
if [ "$STATUS" != running ] || [ "$DONE" -lt 1 ] || [ "$DONE" -ge 6 ]; then
  echo "server-e2e: crash job was done=$DONE status=$STATUS at kill time; not a mid-sweep crash" >&2
  exit 1
fi
echo "server-e2e: killed -9 with $DONE/6 results persisted"

# Restart on the same data dir: the job must be adopted and resumed.
"$BIN" -addr "$ADDR" -data-dir "$DATA_DIR" -fsync always &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

STATUS=running
for _ in $(seq 1 300); do
  STATUS=$(curl -fsS "$BASE/v2/jobs/$CRASH_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
  [ "$STATUS" != running ] && break
  sleep 0.2
done
if [ "$STATUS" != done ]; then
  echo "server-e2e: resumed job ended as '$STATUS'" >&2
  curl -fsS "$BASE/v2/jobs/$CRASH_ID" >&2 || true
  exit 1
fi
curl -fsS "$BASE/v2/jobs/$CRASH_ID" > /tmp/resumed.json

# Reference: the identical sweep run uninterrupted on the same server.
REF_ID=$(curl -fsS "$BASE/v2/jobs" -d "$CRASH_SCENARIO" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
STATUS=running
for _ in $(seq 1 300); do
  STATUS=$(curl -fsS "$BASE/v2/jobs/$REF_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
  [ "$STATUS" != running ] && break
  sleep 0.2
done
curl -fsS "$BASE/v2/jobs/$REF_ID" > /tmp/reference.json
python3 - <<'EOF'
import json
resumed = json.load(open("/tmp/resumed.json"))
reference = json.load(open("/tmp/reference.json"))
assert resumed["status"] == reference["status"] == "done", (resumed["status"], reference["status"])
assert resumed["done"] == reference["done"] == 6, (resumed["done"], reference["done"])
assert resumed["results"] == reference["results"], "resumed results diverge from uninterrupted run"
print("server-e2e: resumed results match uninterrupted run")
EOF

# The durable artifacts and metrics must reflect the recovery: the WAL
# replayed the job, the outbox fed the default jsonl sink, and the outbox
# counter set is scrapeable.
test -s "$DATA_DIR/results.jsonl" || { echo "server-e2e: results.jsonl missing/empty" >&2; exit 1; }
curl -fsS "$BASE/metrics" | python3 -c '
import sys
metrics = {}
for l in sys.stdin:
    if l.strip() and not l.startswith("#"):
        name, _, value = l.rpartition(" ")
        metrics[name] = float(value)
assert metrics.get("delta_wal_replayed_jobs", 0) >= 1, "no jobs replayed from WAL"
assert metrics.get("delta_wal_records_total", 0) > 0, "WAL never written"
for name in ["delta_outbox_depth", "delta_outbox_retries_total", "delta_outbox_dead_letters_total"]:
    assert name in metrics, "missing %s" % name
assert metrics.get("delta_outbox_published_total", 0) > 0, "outbox never fed"
print("server-e2e: durable metrics OK")
'
echo "server-e2e: crash recovery OK"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "server-e2e: PASS"
