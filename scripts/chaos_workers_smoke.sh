#!/usr/bin/env bash
# Chaos smoke test for distributed campaigns: three diam2sweep
# -campaign worker processes share one store; a killer SIGKILLs whole
# generations of them mid-sweep (no cleanup, stale leases, torn
# segment tails), then fresh workers must converge — stealing the dead
# workers' leases — and the finishing worker's stdout must be
# byte-identical to a cold single-process run. This is the end-to-end
# version of TestChaosWorkersConverge, on real binaries. A
# `diam2campaign serve` coordinator runs beside the workers: it must
# answer /campaign/progress while they run, and drain and exit 0 on
# SIGTERM.
#
# Usage: scripts/chaos_workers_smoke.sh [generations] [kill-delay-seconds]
set -euo pipefail

cd "$(dirname "$0")/.."
generations="${1:-3}"
delay="${2:-1}"
workdir="$(mktemp -d)"
coord=""
cleanup() {
  [ -n "$coord" ] && kill "$coord" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/diam2sweep" ./cmd/diam2sweep
go build -o "$workdir/diam2campaign" ./cmd/diam2campaign

common=(-fig 6a -scale quick -seed 7)
store="$workdir/store"
# Short lease TTL so a successor steals a SIGKILLed worker's lease in
# seconds instead of the production default's 30s.
worker_flags=(-campaign -store "$store" -lease-ttl 2s -backoff 100ms)
worker=0

# spawn starts a campaign worker in the background and leaves its pid
# in $spawned. It must run in the main shell (not $(...) command
# substitution): a subshell's child cannot be wait(1)ed on later, and
# the worker counter would never advance.
spawn() {
  worker=$((worker + 1))
  local id
  id="$(printf 'chaos-%03d' "$worker")"
  "$workdir/diam2sweep" "${common[@]}" -j 2 "${worker_flags[@]}" -worker-id "$id" \
    > "$workdir/out-$id.txt" 2> "$workdir/log-$id.txt" &
  spawned=$!
}

spawn3() { # fill $pids with a fresh generation of three workers
  pids=()
  for _ in 1 2 3; do
    spawn
    pids+=("$spawned")
  done
}

echo "== cold single-process baseline"
"$workdir/diam2sweep" "${common[@]}" -j 1 > "$workdir/cold.txt"

echo "== submit the campaign manifest"
"$workdir/diam2campaign" -store "$store" submit -name "chaos smoke fig 6a" -- "${common[@]}"

echo "== coordinator: diam2campaign serve beside the workers"
"$workdir/diam2campaign" -store "$store" serve -http 127.0.0.1:0 2> "$workdir/coord.log" &
coord=$!
base=""
for _ in $(seq 50); do
  base="$(grep -o 'at http://[0-9.:]*' "$workdir/coord.log" | head -1 | cut -c4- || true)"
  [ -n "$base" ] && break
  sleep 0.1
done
if [ -z "$base" ]; then
  echo "FAIL: coordinator never announced its address:" >&2
  cat "$workdir/coord.log" >&2
  exit 1
fi
echo "   listening at $base"

echo "== chaos phase: $generations generations of 3 workers, SIGKILL after ${delay}s"
kills=0
for gen in $(seq 1 "$generations"); do
  spawn3
  sleep "$delay"
  if [ "$gen" -eq 1 ]; then
    progress="$(curl -sf "$base/campaign/progress" || true)"
    if ! grep -q '"workers": [1-9]' <<<"$progress"; then
      echo "FAIL: /campaign/progress shows no worker while three run: $progress" >&2
      exit 1
    fi
    echo "   /campaign/progress while workers run: $(tr -d ' \n' <<<"$progress")"
  fi
  for pid in "${pids[@]}"; do
    if kill -0 "$pid" 2>/dev/null; then
      kills=$((kills + 1))
      kill -9 "$pid" 2>/dev/null || true
    fi
    wait "$pid" 2>/dev/null || true
  done
  echo "   generation $gen down"
done
if [ "$kills" -eq 0 ]; then
  echo "FAIL: no worker was ever caught alive; the sweep finished before every kill" >&2
  exit 1
fi
echo "   $kills workers SIGKILLed mid-sweep"

echo "== campaign status after the carnage (dead workers, stale leases expected)"
"$workdir/diam2campaign" -store "$store" status || true

echo "== convergence phase: fresh workers until one finishes clean"
deadline=$((SECONDS + 120))
finished=""
spawn3
while [ -z "$finished" ]; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: campaign never converged within 120s" >&2
    for log in "$workdir"/log-*.txt; do echo "--- $log"; cat "$log"; done >&2
    exit 1
  fi
  for i in "${!pids[@]}"; do
    pid="${pids[$i]}"
    if kill -0 "$pid" 2>/dev/null; then
      continue
    fi
    if wait "$pid" 2>/dev/null; then
      finished="$pid"
      break
    fi
    # Transient death (lost a lease race, etc.) — respawn and keep going.
    spawn
    pids[$i]="$spawned"
  done
  sleep 0.2
done
# The finishing worker re-renders the full sweep (cache hits included),
# so exactly one stdout capture must match the cold run byte-for-byte.
out=""
for f in "$workdir"/out-chaos-*.txt; do
  if cmp -s "$workdir/cold.txt" "$f"; then out="$f"; break; fi
done
for pid in "${pids[@]}"; do
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done

if [ -z "$out" ]; then
  echo "FAIL: no finished worker produced stdout byte-identical to the cold run" >&2
  for f in "$workdir"/out-chaos-*.txt; do
    echo "--- $f"; diff "$workdir/cold.txt" "$f" || true
  done >&2
  exit 1
fi
echo "   $(basename "$out") matches the cold run byte-for-byte"

echo "== final status: no leases or failures may remain"
"$workdir/diam2campaign" -store "$store" status
status="$("$workdir/diam2campaign" -store "$store" status)"
if ! grep -q 'leases    0 outstanding' <<<"$status"; then
  echo "FAIL: converged campaign still holds leases" >&2
  exit 1
fi
if grep -q 'QUARANTINED' <<<"$status"; then
  echo "FAIL: converged campaign quarantined points" >&2
  exit 1
fi

echo "== coordinator drain: SIGTERM must exit 0"
kill -TERM "$coord"
rc=0
wait "$coord" || rc=$?
coord=""
if [ "$rc" -ne 0 ] || ! grep -q 'diam2campaign: drained' "$workdir/coord.log"; then
  echo "FAIL: coordinator exited $rc on SIGTERM:" >&2
  cat "$workdir/coord.log" >&2
  exit 1
fi

echo "PASS: campaign converged under SIGKILL chaos, byte-identical to the cold run; the coordinator served progress and drained"
