#!/usr/bin/env bash
# End-to-end exercises of distributed sweeps, split into legs selectable
# via LEGS (default: all). Every leg builds the same assertion core: the
# coordinator's merged sweep must be identical point for point to a
# single-node run of the same scenario, and its event stream identical
# byte for byte, no matter what the fleet suffered.
#
#   kill           two workers + coordinator; kill -9 a worker mid-sweep;
#                  assert the survivor takes over, the killed worker has an
#                  attempt counted failed or cancelled, fleet metrics, and
#                  quorum-loss 503 (the original smoke).
#   chaos-stream   workers run under -chaos rules that corrupt an SSE
#                  frame and then cut a shard stream mid-shard; assert
#                  both faults were applied (each forced a reconnect), the
#                  SSE client recovered in-stream (no shard retries
#                  burned), and results stay identical.
#   chaos-slow     one worker is slow from its first request (injected
#                  per-frame latency); the free worker splits its shard or
#                  re-runs its last point; assert a split or re-run was
#                  counted and results stay identical.
#   chaos-refuse   one worker refuses every shard connection; assert the
#                  other worker served every point, results stay
#                  identical, and the refuser still reads as up in
#                  /healthz (only /v2/shards fails there).
#
# Run by the CI fleet-e2e (LEGS=kill) and chaos-e2e (the three chaos legs)
# jobs; usable locally: ./scripts/fleet_e2e.sh [LEGS="kill chaos-slow"]
set -Eeuo pipefail
# -E propagates the ERR trap into the leg functions: any failing command
# names its line and text before the EXIT trap tears the fleet down.
trap 'echo "fleet-e2e: FAIL at ${BASH_SOURCE[0]}:$LINENO: $BASH_COMMAND" >&2' ERR

LEGS="${LEGS:-kill chaos-stream chaos-slow chaos-refuse}"
REF="${REF:-127.0.0.1:18090}"

TMP=$(mktemp -d)
BIN="$TMP/delta-server"

# The EXIT handler stops every server, prints the tail of each server log
# when the run failed (the logs go with the temp dir), then removes it.
PIDS=()
declare -A ADDR_PID
cleanup() {
  local rc=$?
  if [ "${#PIDS[@]}" -gt 0 ]; then
    kill -9 "${PIDS[@]}" 2>/dev/null || true
    wait "${PIDS[@]}" 2>/dev/null || true
  fi
  if [ "$rc" != 0 ]; then
    for log in "$TMP"/*.log; do
      [ -f "$log" ] || continue
      echo "fleet-e2e: last 20 lines of $(basename "$log"):" >&2
      tail -n 20 "$log" >&2
    done
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/delta-server

start() { # addr [extra flags...] -> starts a server, logs to $TMP/<addr>.log
  local addr=$1; shift
  "$BIN" -addr "$addr" "$@" >>"$TMP/$addr.log" 2>&1 &
  ADDR_PID["$addr"]=$!
  PIDS+=("$!")
}

wait_up() {
  for _ in $(seq 1 50); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  curl -fsS "http://$1/healthz" >/dev/null
}

peers_file() { # worker addrs... -> echoes a -peers @file
  local f
  f=$(mktemp "$TMP/peers.XXXX")
  printf '%s\n' "$@" > "$f"
  echo "$f"
}

submit() { # host, scenario -> job id
  curl -fsS "http://$1/v2/jobs" -d "$2" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

poll_done() { # host, job id -> waits out of running, echoes final status
  local status=running
  for _ in $(seq 1 600); do
    status=$(curl -fsS "http://$1/v2/jobs/$2" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
    [ "$status" != running ] && break
    sleep 0.2
  done
  echo "$status"
}

fetch_job() { # host, job id, outfile: the job record, and its event stream beside it
  curl -fsS "http://$1/v2/jobs/$2" > "$3"
  curl -fsS --max-time 60 "http://$1/v2/jobs/$2/events" > "${3%.json}.events"
}

run_job() { # host, scenario, outfile; fails unless the job ends done
  local id status
  id=$(submit "$1" "$2")
  status=$(poll_done "$1" "$id")
  if [ "$status" != done ]; then
    echo "fleet-e2e: job $id on $1 ended as '$status'" >&2
    curl -fsS "http://$1/v2/jobs/$id" >&2 || true
    exit 1
  fi
  fetch_job "$1" "$id" "$3"
}

identical() { # merged.json, reference.json, total (each fetched by fetch_job)
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
merged = json.load(open(sys.argv[1]))
reference = json.load(open(sys.argv[2]))
total = int(sys.argv[3])
assert merged["done"] == merged["total"] == total, (merged["done"], merged["total"])
for i, r in enumerate(merged["results"]):
    assert r["index"] == i, "merged results out of order"
assert merged["results"] == reference["results"], "merged results diverge from single-node run"
print("fleet-e2e: merged results identical to single-node run")
EOF
  # The finished jobs' event streams carry the stored result bytes, so
  # they must match byte for byte, not only as parsed values.
  if ! cmp "${1%.json}.events" "${2%.json}.events" >&2; then
    echo "fleet-e2e: merged job stream differs from the single-node stream" >&2
    exit 1
  fi
  echo "fleet-e2e: merged job stream identical byte for byte"
}

metric() { # host, exact metric name (no labels) -> value (0 if absent)
  curl -fsS "http://$1/metrics" | awk -v m="$2" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

# A six-point simulation sweep, slow enough that a worker dies mid-stream:
# several L2 configurations over a mid-size layer.
SIM_SCENARIO='{"scenario": {
  "name": "fleet-e2e",
  "workloads": [{"name": "mid", "layers": [{"b": 8, "ci": 128, "hi": 56, "co": 128, "hf": 3, "pad": 1}]}],
  "devices": [{"name": "TITAN Xp"}],
  "sim_configs": [{"max_waves": 24}, {"l2_ways": 8, "max_waves": 24}, {"l1_ways": 8, "max_waves": 24},
                  {"max_waves": 32}, {"l2_ways": 8, "max_waves": 32}, {"row_major_scheduling": true, "max_waves": 32}]
}}'

# A two-point network-model sweep: fast points, so chaos legs measure the
# injected faults, not the evaluation.
FAST_SCENARIO='{"scenario": {
  "name": "chaos-e2e",
  "workloads": [{"network": "alexnet"}],
  "devices": [{"name": "TITAN Xp"}],
  "batches": [1, 16],
  "models": ["delta"]
}}'

start "$REF"
wait_up "$REF"

sim_reference() {
  [ -f "$TMP/ref_sim.json" ] && return 0
  run_job "$REF" "$SIM_SCENARIO" "$TMP/ref_sim.json"
  echo "fleet-e2e: single-node sim reference done"
}

fast_reference() {
  [ -f "$TMP/ref_fast.json" ] && return 0
  run_job "$REF" "$FAST_SCENARIO" "$TMP/ref_fast.json"
  echo "fleet-e2e: single-node fast reference done"
}

# ---------------------------------------------------------------- kill leg
leg_kill() {
  local W1=127.0.0.1:18091 W2=127.0.0.1:18092 CO=127.0.0.1:18093
  start "$W1"; start "$W2"
  start "$CO" -coordinator -peers "@$(peers_file "$W1" "$W2")"
  wait_up "$W1"; wait_up "$W2"; wait_up "$CO"

  # With both workers reachable the coordinator reports fleet quorum.
  curl -fsS "http://$CO/healthz" | python3 -c '
import json, sys
j = json.load(sys.stdin)
assert j["fleet"]["quorum"] is True, j["fleet"]
assert len(j["fleet"]["peers"]) == 2, j["fleet"]
print("fleet-e2e: healthz quorum OK")
'

  sim_reference

  # The same sweep through the coordinator; kill -9 a worker once results
  # are flowing but before the sweep can be finished. Both workers pull
  # shards from the queue until it is drained, so either one holds an
  # attempt when it dies.
  local FLEET_ID DONE=0 STATUS=running
  FLEET_ID=$(submit "$CO" "$SIM_SCENARIO")
  echo "fleet-e2e: submitted fleet job $FLEET_ID"
  for _ in $(seq 1 400); do
    read -r DONE STATUS < <(curl -fsS "http://$CO/v2/jobs/$FLEET_ID" \
      | python3 -c 'import json,sys; j=json.load(sys.stdin); print(j["done"], j["status"])')
    [ "$DONE" -ge 1 ] && break
    [ "$STATUS" != running ] && break
    sleep 0.05
  done
  kill -9 "${ADDR_PID[$W1]}"
  wait "${ADDR_PID[$W1]}" 2>/dev/null || true
  if [ "$STATUS" != running ] || [ "$DONE" -lt 1 ] || [ "$DONE" -ge 6 ]; then
    echo "fleet-e2e: fleet job was done=$DONE status=$STATUS at kill time; not a mid-sweep kill" >&2
    exit 1
  fi
  echo "fleet-e2e: killed -9 worker $W1 with $DONE/6 results merged"

  STATUS=$(poll_done "$CO" "$FLEET_ID")
  if [ "$STATUS" != done ]; then
    echo "fleet-e2e: fleet job ended as '$STATUS'" >&2
    curl -fsS "http://$CO/v2/jobs/$FLEET_ID" >&2 || true
    exit 1
  fi
  fetch_job "$CO" "$FLEET_ID" "$TMP/kill_merged.json"
  identical "$TMP/kill_merged.json" "$TMP/ref_sim.json" 6

  # The fleet metrics must show the takeover: the killed worker's attempt
  # ended failed (its stream died) or cancelled (the survivor re-ran its
  # point first), every point merged, nothing left in flight.
  curl -fsS "http://$CO/metrics" | python3 -c '
import sys
killed = sys.argv[1]
metrics = {}
for l in sys.stdin:
    if l.strip() and not l.startswith("#"):
        name, _, value = l.rpartition(" ")
        metrics[name] = float(value)

def total(prefix):
    return sum(v for k, v in metrics.items() if k.startswith(prefix))

lost = sum(metrics.get("delta_cluster_shards_total{peer=\"%s\",status=\"%s\"}" % (killed, s), 0)
           for s in ("failed", "cancelled"))
assert lost > 0, "no failed or cancelled attempt counted for the killed worker " + killed
assert metrics.get("delta_cluster_points_merged_total", 0) >= 6, "points not merged"
assert metrics.get("delta_cluster_shards_in_flight", -1) == 0, "shards still in flight"
assert metrics.get("delta_cluster_peers", 0) == 2, "peer gauge missing"
assert total("delta_cluster_shards_total") > 0, "no shard attempts counted"
print("fleet-e2e: fleet metrics OK")
' "$W1"

  # One of two workers is gone: the fleet has lost quorum (majority), so
  # the coordinator must degrade readiness.
  local CODE
  CODE=$(curl -s -o "$TMP/kill_health.json" -w '%{http_code}' "http://$CO/healthz")
  if [ "$CODE" != 503 ]; then
    echo "fleet-e2e: post-kill /healthz answered $CODE, want 503" >&2
    cat "$TMP/kill_health.json" >&2
    exit 1
  fi
  python3 - "$TMP/kill_health.json" <<'EOF'
import json, sys
j = json.load(open(sys.argv[1]))
assert j["status"] == "degraded", j["status"]
assert j["fleet"]["quorum"] is False, j["fleet"]
up = sum(1 for p in j["fleet"]["peers"] if p["ok"])
assert up == 1, j["fleet"]["peers"]
print("fleet-e2e: degraded healthz OK")
EOF
  echo "fleet-e2e: kill leg PASS"
}

# -------------------------------------------------------- chaos-stream leg
# Both workers arm the same deterministic rules. The coordinator queues the
# six-point sweep as six one-point shards, so each rule targets a frame
# every shard stream carries: the first shard stream has its result frame
# (frame 0) corrupted, and its reconnect is cut after that frame, before
# the done frame. The SSE client must recover both in-stream — reconnect
# with Last-Event-ID at the last good frame — without burning a single
# shard reassignment.
leg_chaos_stream() {
  local W1=127.0.0.1:18094 W2=127.0.0.1:18095 CO=127.0.0.1:18096
  local RULES='[{"fault":"corrupt","path":"/v2/shards","after_frames":0,"count":1},
                {"fault":"cut","path":"/v2/shards","after_requests":1,"after_frames":1,"count":1}]'
  start "$W1" -chaos "$RULES"
  start "$W2" -chaos "$RULES"
  start "$CO" -coordinator -peers "@$(peers_file "$W1" "$W2")"
  wait_up "$W1"; wait_up "$W2"; wait_up "$CO"

  sim_reference
  run_job "$CO" "$SIM_SCENARIO" "$TMP/stream_merged.json"
  identical "$TMP/stream_merged.json" "$TMP/ref_sim.json" 6

  # The injections actually fired (worker logs carry one line each)...
  if ! grep -qh "chaos: inject .*cut@frame" "$TMP/$W1.log" "$TMP/$W2.log"; then
    echo "fleet-e2e: no cut injection logged by either worker" >&2; exit 1
  fi
  if ! grep -qh "chaos: inject .*corrupt@frame" "$TMP/$W1.log" "$TMP/$W2.log"; then
    echo "fleet-e2e: no corrupt injection logged by either worker" >&2; exit 1
  fi
  # ...and were applied, not only planned: each forced a reconnect, so
  # each worker served two more shard requests than the coordinator
  # counted attempts on it.
  local W SERVED ATTEMPTS
  for W in "$W1" "$W2"; do
    SERVED=$(grep -c "POST /v2/shards " "$TMP/$W.log" || true)
    ATTEMPTS=$(curl -fsS "http://$CO/metrics" | awk -v p="delta_cluster_shards_total{peer=\"$W\"," \
      'index($1, p) == 1 {n += $2} END {print n + 0}')
    if [ "$SERVED" -lt $(( ATTEMPTS + 2 )) ]; then
      echo "fleet-e2e: $W served $SERVED shard requests for $ATTEMPTS attempts; want 2 more, one per applied fault" >&2
      exit 1
    fi
    echo "fleet-e2e: $W served $SERVED shard requests for $ATTEMPTS attempts"
  done
  # ...and both were absorbed inside the SSE stream: zero shard retries.
  if [ "$(metric "$CO" delta_cluster_shard_retries_total)" != 0 ]; then
    echo "fleet-e2e: stream faults burned shard retries; want in-stream recovery" >&2; exit 1
  fi
  if [ "$(metric "$CO" delta_cluster_shards_in_flight)" != 0 ]; then
    echo "fleet-e2e: shards still in flight" >&2; exit 1
  fi
  echo "fleet-e2e: chaos-stream leg PASS"
}

# ---------------------------------------------------------- chaos-slow leg
# One worker is slow from its first request: every SSE frame it sends is
# delayed 1.5s. The free worker must relieve it — split its shard or re-run
# its last point — and the first copy to merge wins.
leg_chaos_slow() {
  local W1=127.0.0.1:18097 W2=127.0.0.1:18098 CO=127.0.0.1:18099
  start "$W1"
  start "$W2" -chaos '[{"fault":"latency","where":"frame","latency_ms":1500,"path":"/v2/shards"}]'
  start "$CO" -coordinator -peers "@$(peers_file "$W1" "$W2")"
  wait_up "$W1"; wait_up "$W2"; wait_up "$CO"

  fast_reference
  run_job "$CO" "$FAST_SCENARIO" "$TMP/slow_merged.json"
  identical "$TMP/slow_merged.json" "$TMP/ref_fast.json" 2

  local RERUNS SPLITS
  RERUNS=$(metric "$CO" delta_cluster_hedged_shards_total)
  SPLITS=$(metric "$CO" delta_cluster_shard_splits_total)
  if [ $(( ${RERUNS%.*} + ${SPLITS%.*} )) -lt 1 ]; then
    echo "fleet-e2e: no split or re-run relieved the slow worker" >&2; exit 1
  fi
  echo "fleet-e2e: chaos-slow leg PASS (re-runs=$RERUNS splits=$SPLITS)"
}

# -------------------------------------------------------- chaos-refuse leg
# One worker refuses every /v2/shards connection from the start. Its
# shards go back on the queue for the other worker, which must serve every
# point. Its /healthz still answers, so the coordinator reads it as up.
leg_chaos_refuse() {
  local W1=127.0.0.1:18100 W2=127.0.0.1:18101 CO=127.0.0.1:18102
  start "$W1"
  start "$W2" -chaos '[{"fault":"refuse","path":"/v2/shards"}]'
  start "$CO" -coordinator -peers "@$(peers_file "$W1" "$W2")"
  wait_up "$W1"; wait_up "$W2"; wait_up "$CO"

  fast_reference
  run_job "$CO" "$FAST_SCENARIO" "$TMP/refuse_merged.json"
  identical "$TMP/refuse_merged.json" "$TMP/ref_fast.json" 2

  local SERVED REFUSED
  SERVED=$(metric "$W1" delta_scenario_points_total)
  REFUSED=$(metric "$W2" delta_scenario_points_total)
  if [ "${SERVED%.*}" != 2 ] || [ "${REFUSED%.*}" != 0 ]; then
    echo "fleet-e2e: points served: $W1=$SERVED $W2=$REFUSED, want 2 and 0" >&2; exit 1
  fi

  local CODE
  CODE=$(curl -s -o "$TMP/refuse_health.json" -w '%{http_code}' "http://$CO/healthz")
  python3 - "$TMP/refuse_health.json" "$CODE" "$W2" <<'EOF'
import json, sys
j = json.load(open(sys.argv[1]))
assert sys.argv[2] == "200", "/healthz answered " + sys.argv[2]
assert j["fleet"]["quorum"] is True, j["fleet"]
peer = next(p for p in j["fleet"]["peers"] if p["peer"] == sys.argv[3])
assert peer["ok"] is True, peer
print("fleet-e2e: refusing worker reads as up in healthz OK")
EOF
  echo "fleet-e2e: chaos-refuse leg PASS"
}

# shellcheck disable=SC2086 # LEGS is a deliberate space-separated list
for leg in $LEGS; do
  echo "fleet-e2e: === leg $leg ==="
  case "$leg" in
    kill) leg_kill ;;
    chaos-stream) leg_chaos_stream ;;
    chaos-slow) leg_chaos_slow ;;
    chaos-refuse) leg_chaos_refuse ;;
    *) echo "fleet-e2e: unknown leg '$leg'" >&2; exit 2 ;;
  esac
done

echo "fleet-e2e: PASS ($LEGS)"
