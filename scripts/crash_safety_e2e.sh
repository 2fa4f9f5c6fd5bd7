#!/usr/bin/env bash
# Crash-safety end-to-end over a real process boundary:
#
#   1. start the example server with a persistent store, ingest while
#      queries run, and commit a snapshot;
#   2. fire an ingest storm and `kill -9` the server mid-storm;
#   3. restart over the same store and assert every acknowledged input
#      survived (dataset_size >= last acked size), the index tier settles
#      with every watermark exactly at the dataset size (nothing skipped,
#      nothing double-indexed), the readiness line reports recovery, and
#      the store holds no index/ subtree (the snapshot is the only index
#      format on disk);
#   4. prove exactly-once end to end: a THIRD server over a fresh store
#      ingests the identical prefix the restarted server settled at, and
#      both must return byte-identical query entries — a lost or
#      double-merged input would change the top-k.
#
# Usage: scripts/crash_safety_e2e.sh [build_dir]
set -u

BUILD_DIR="${1:-build}"
SERVER="${BUILD_DIR}/example_query_server"
PORT="${DE_E2E_PORT:-18931}"
BASE=200                 # demo-a's deterministic seed dataset size
QUERY='{"model":"demo-a","kind":"highest","layer":1,"neurons":[0,3,6],"k":8}'

if [ ! -x "${SERVER}" ]; then
  echo "error: '${SERVER}' not found; build example_query_server first" >&2
  exit 2
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "${SERVER_PID}" ] && kill -9 "${SERVER_PID}" 2>/dev/null
  wait 2>/dev/null
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for log in "${WORK}"/server*.log; do
    [ -f "${log}" ] && { echo "--- ${log} ---" >&2; cat "${log}" >&2; }
  done
  exit 1
}

url() { echo "http://127.0.0.1:${PORT}$1"; }

wait_ready() {
  for _ in $(seq 1 300); do
    curl -sf "$(url /healthz)" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  return 1
}

# Deterministic ingest inputs: batch of `count` starting at global extra
# index `start`. Both the crashing server and the fresh reference server
# replay the same sequence, so equal dataset sizes mean identical data.
gen_batch() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
start, count = int(sys.argv[1]), int(sys.argv[2])
inputs = []
for i in range(start, start + count):
    values = [((i * 8 + d) * 2654435761 % 1000003) / 1000003.0 - 0.5
              for d in range(8)]
    inputs.append({"values": values, "label": i % 4})
print(json.dumps({"model": "demo-a", "inputs": inputs}))
EOF
}

# Ingest one batch, retrying on 429 backpressure; prints the acked
# dataset_size.
ingest() {
  local body status
  body="$(gen_batch "$1" "$2")"
  for _ in $(seq 1 100); do
    status="$(curl -s -o "${WORK}/ingest_out.json" -w '%{http_code}' \
        -X POST --data "${body}" "$(url /v1/ingest)")"
    if [ "${status}" = "200" ]; then
      python3 -c 'import json;print(json.load(open("'"${WORK}"'/ingest_out.json"))["dataset_size"])'
      return 0
    fi
    [ "${status}" = "429" ] || return 1
    sleep 0.05
  done
  return 1
}

query_entries() {
  curl -sf -X POST --data "${QUERY}" "$(url /v1/query)" |
    python3 -c 'import json,sys;print(json.dumps(json.load(sys.stdin)["entries"]))'
}

# Polls /v1/snapshot until every layer watermark equals dataset_size == $1
# (fully applied, nothing skipped, nothing double-indexed).
wait_applied() {
  local want="$1"
  for _ in $(seq 1 300); do
    if curl -sf "$(url '/v1/snapshot?model=demo-a')" \
        -o "${WORK}/snap.json" 2>/dev/null; then
      if python3 - "${want}" "${WORK}/snap.json" <<'EOF'
import json, sys
want = int(sys.argv[1])
snap = json.load(open(sys.argv[2]))
size = snap["dataset_size"]
assert size == want, f"dataset_size {size} != {want}"
for w in snap["watermarks"]:
    assert w["watermark"] <= size, f"watermark past dataset: {w}"
sys.exit(0 if snap["min_watermark"] == size else 1)
EOF
      then return 0; fi
    fi
    sleep 0.1
  done
  return 1
}

echo "== phase 1: serve + ingest + snapshot (store ${WORK}/store)"
"${SERVER}" --port "${PORT}" --store-dir "${WORK}/store" \
    --snapshot-every 20 > "${WORK}/server1.log" 2>&1 &
SERVER_PID=$!
disown "${SERVER_PID}"
wait_ready || fail "server 1 never became ready"

BASELINE="$(query_entries)" || fail "baseline query failed"
[ -n "${BASELINE}" ] || fail "baseline query returned no entries"

for b in 0 1 2 3; do
  ingest $((b * 10)) 10 >/dev/null || fail "warm ingest batch ${b} failed"
done
wait_applied $((BASE + 40)) || fail "index tier never caught up to $((BASE + 40))"
curl -sf -X POST --data '{"model":"demo-a"}' "$(url /v1/snapshot/save)" \
    >/dev/null || fail "snapshot save failed"

echo "== phase 2: ingest storm, kill -9 mid-storm"
: > "${WORK}/acked.log"
(
  start=40
  while :; do
    size="$(ingest "${start}" 10)" || exit 0  # server died mid-request
    echo "${size}" >> "${WORK}/acked.log"
    start=$((start + 10))
  done
) &
STORM_PID=$!
# A query must still succeed while the storm runs (ingest never blocks
# serving), then the server dies with acks in flight.
for _ in $(seq 1 100); do
  [ "$(wc -l < "${WORK}/acked.log")" -ge 3 ] && break
  sleep 0.05
done
query_entries >/dev/null || fail "query during ingest storm failed"
kill -9 "${SERVER_PID}" 2>/dev/null
SERVER_PID=""
wait "${STORM_PID}" 2>/dev/null
LAST_ACKED="$(tail -n 1 "${WORK}/acked.log")"
[ -n "${LAST_ACKED}" ] || fail "storm never got an ack before the kill"
echo "   last acked dataset_size before kill: ${LAST_ACKED}"

echo "== phase 3: restart over the same store"
"${SERVER}" --port "${PORT}" --store-dir "${WORK}/store" \
    > "${WORK}/server2.log" 2>&1 &
SERVER_PID=$!
disown "${SERVER_PID}"
wait_ready || fail "restarted server never became ready"
grep -Eq 'recovered_inputs=[1-9][0-9]* recovered_layers=[1-9]' \
    "${WORK}/server2.log" ||
  fail "readiness line does not report recovery"

curl -sf "$(url '/v1/snapshot?model=demo-a')" -o "${WORK}/snap.json" ||
  fail "snapshot stats unavailable after restart"
SETTLED="$(python3 -c 'import json;print(json.load(open("'"${WORK}"'/snap.json"))["dataset_size"])')"
[ "${SETTLED}" -ge "${LAST_ACKED}" ] ||
  fail "acked inputs lost: settled ${SETTLED} < acked ${LAST_ACKED}"
wait_applied "${SETTLED}" || fail "restarted index tier never settled"
# The snapshot is the only durable index format: no per-layer index files.
[ ! -e "${WORK}/store/index" ] ||
  fail "the store holds an index/ subtree beside the snapshot"
RESTART_ANSWER="$(query_entries)" || fail "query after restart failed"
echo "   settled dataset_size ${SETTLED}, answers served"

echo "== phase 4: fresh-store reference over the identical prefix"
kill -9 "${SERVER_PID}" 2>/dev/null
SERVER_PID=""
sleep 0.2
"${SERVER}" --port "${PORT}" --store-dir "${WORK}/store-ref" \
    > "${WORK}/server3.log" 2>&1 &
SERVER_PID=$!
disown "${SERVER_PID}"
wait_ready || fail "reference server never became ready"
EXTRA=$((SETTLED - BASE))
start=0
while [ "${start}" -lt "${EXTRA}" ]; do
  count=$((EXTRA - start)); [ "${count}" -gt 50 ] && count=50
  ingest "${start}" "${count}" >/dev/null ||
    fail "reference ingest at ${start} failed"
  start=$((start + count))
done
wait_applied "${SETTLED}" || fail "reference index tier never settled"
REFERENCE_ANSWER="$(query_entries)" || fail "reference query failed"

if [ "${RESTART_ANSWER}" != "${REFERENCE_ANSWER}" ]; then
  echo "restarted : ${RESTART_ANSWER}" >&2
  echo "reference : ${REFERENCE_ANSWER}" >&2
  fail "restarted answers are NOT bit-identical to a fresh ingest of the same prefix (lost or double-indexed input)"
fi

echo "PASS: kill -9 mid-ingest lost nothing, double-indexed nothing; answers bit-identical (${SETTLED} inputs)"
