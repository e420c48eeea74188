#!/usr/bin/env bash
# End-to-end serving smoke + replay determinism gate.
#
#   1. Start a server with a recorded workload log and drive a mixed
#      read/write workload at 4 concurrent clients; assert roster agreement
#      on a read-only pass first (every index answers reads identically).
#   2. Replay the recorded log twice, each time against a FRESH server with
#      the same dataset flags, and require bit-identical response-stream
#      checksums across the two replays.
#   3. Require the two replay servers' final index checksums to agree with
#      each other AND with an original-run rerun — same accepted requests,
#      same final state, regardless of transport timing.
#
# Usage: server_replay_gate.sh <quasii_server> <quasii_client> <workdir>
set -euo pipefail

# Absolute paths: the script `cd`s into its work dir before starting them.
SERVER="$(realpath "$1")"
CLIENT="$(realpath "$2")"
WORKDIR="$3"

N=4096
SEED=7
QUERIES=120
MIX="range:0.55,point:0.1,count:0.1,knn:0.05,join:0.05,insert:0.1,erase:0.05"
INDEXES="Scan,QUASII,R-Tree"

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
cd "$WORKDIR"

SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

# Starts a server, waits for its READY line, sets SERVER_PID.
start_server() {
  local sock="$1" out="$2"
  shift 2
  : > server.stdout
  "$SERVER" --socket="$sock" --n=$N --seed=$SEED --indexes="$INDEXES" \
            --out="$out" "$@" > server.stdout &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if grep -q '^READY ' server.stdout 2>/dev/null; then
      return 0
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "FAIL: server died before READY" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: server never became ready" >&2
  exit 1
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=""
}

json_field() {
  # json_field FILE KEY — first numeric/boolean value of "KEY" in FILE.
  grep -o "\"$2\":[a-z0-9]*" "$1" | head -n1 | cut -d: -f2
}

# ---- 1. roster agreement on reads, then the recorded mixed run ----------
start_server quasii.sock server_record.json --record=run.workload
"$CLIENT" --socket=quasii.sock --n=$N --seed=$SEED --queries=$QUERIES \
          --mix="range:0.6,point:0.15,count:0.15,knn:0.1" \
          --targets=0,1,2 --agree --out=agree.json
"$CLIENT" --socket=quasii.sock --n=$N --seed=$SEED --queries=$QUERIES \
          --mix="$MIX" --clients=4 --targets=0,1,2 --out=workload.json
stop_server
if [[ "$(json_field workload.json transport_ok)" != "true" ]]; then
  echo "FAIL: workload run had transport errors" >&2
  exit 1
fi
if ! grep -q '"p99_ms":' workload.json; then
  echo "FAIL: workload report lacks p99" >&2
  exit 1
fi
ORIG_CHECKSUMS=$(grep -o '"checksum":[0-9]*' server_record.json | tr '\n' ' ')
RECORDED=$(json_field server_record.json recorded)
if [[ -z "$RECORDED" || "$RECORDED" == "0" ]]; then
  echo "FAIL: nothing was recorded" >&2
  exit 1
fi

# ---- 2. replay twice against fresh servers ------------------------------
for i in 1 2; do
  start_server "replay$i.sock" "server_replay$i.json"
  "$CLIENT" --socket="replay$i.sock" --replay=run.workload \
            --out="replay$i.json"
  stop_server
done

CK1=$(json_field replay1.json response_checksum)
CK2=$(json_field replay2.json response_checksum)
if [[ -z "$CK1" || "$CK1" != "$CK2" ]]; then
  echo "FAIL: replay response checksums diverge: $CK1 vs $CK2" >&2
  exit 1
fi

# ---- 3. final index state must agree across all three servers -----------
IDX1=$(grep -o '"checksum":[0-9]*' server_replay1.json | tr '\n' ' ')
IDX2=$(grep -o '"checksum":[0-9]*' server_replay2.json | tr '\n' ' ')
if [[ -z "$IDX1" || "$IDX1" != "$IDX2" || "$IDX1" != "$ORIG_CHECKSUMS" ]]; then
  echo "FAIL: final index checksums diverge" >&2
  echo "  original: $ORIG_CHECKSUMS" >&2
  echo "  replay1:  $IDX1" >&2
  echo "  replay2:  $IDX2" >&2
  exit 1
fi

echo "PASS: $RECORDED recorded requests replay bit-identically" \
     "(responses $CK1, index state $IDX1)"
