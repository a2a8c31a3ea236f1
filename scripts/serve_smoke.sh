#!/usr/bin/env bash
# Query-service smoke: diam2serve must come up against an empty store,
# answer a cold query from the fluid tier, answer the identical re-issue
# from the fluid-cache tier, escalate a near-saturation point to the
# flit-level simulator (pollable ticket to "done", after which the same
# query is a sim-cache hit), show every tier's query_ms.<tier> histogram
# and the screen.* counters on /telemetry, and drain cleanly on SIGTERM
# with exit 0.
#
# Usage: scripts/serve_smoke.sh [ticket-budget-seconds]
set -euo pipefail

cd "$(dirname "$0")/.."
budget="${1:-120}"
workdir="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/diam2serve" ./cmd/diam2serve

echo "== start: diam2serve against an empty store"
"$workdir/diam2serve" -http 127.0.0.1:0 -store "$workdir/store" -scale quick \
  -escalate-band 0.15 2> "$workdir/serve.log" &
pid=$!

base=""
for _ in $(seq 50); do
  base="$(grep -o 'http://[0-9.:]*' "$workdir/serve.log" | head -1 || true)"
  [ -n "$base" ] && break
  sleep 0.1
done
if [ -z "$base" ]; then
  echo "FAIL: server never announced its address:" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
echo "   listening at $base"

echo "== cold query: answered from the fluid tier"
curl -sf "$base/query?topo=SF(q=5,p=3)&routing=MIN&pattern=UNI&load=0.5" > "$workdir/cold.json"
grep -q '"tier": "fluid"' "$workdir/cold.json" || {
  echo "FAIL: cold query not answered from the fluid tier:" >&2
  cat "$workdir/cold.json" >&2
  exit 1
}

echo "== warm re-issue: answered from the fluid-cache tier"
curl -sf "$base/query?topo=SF(q=5,p=3)&routing=MIN&pattern=UNI&load=0.5" > "$workdir/warm.json"
grep -q '"tier": "fluid-cache"' "$workdir/warm.json" || {
  echo "FAIL: identical re-issue not a fluid-cache hit:" >&2
  cat "$workdir/warm.json" >&2
  exit 1
}

echo "== escalation: SF worst-case at load 0.18 sits in the band around its predicted saturation (1/6)"
curl -sf "$base/query?topo=SF(q=5,p=3)&routing=MIN&pattern=WC&load=0.18" > "$workdir/esc.json"
ticket="$(grep -o '"ticket": "esc-[0-9]*"' "$workdir/esc.json" | grep -o 'esc-[0-9]*' || true)"
if [ -z "$ticket" ]; then
  echo "FAIL: near-saturation query carried no escalation ticket:" >&2
  cat "$workdir/esc.json" >&2
  exit 1
fi
echo "   polling ticket $ticket"
start=$(date +%s)
while :; do
  curl -sf "$base/ticket/$ticket" > "$workdir/ticket.json"
  if grep -q '"state": "done"' "$workdir/ticket.json"; then break; fi
  if grep -q '"state": "failed"' "$workdir/ticket.json"; then
    echo "FAIL: escalation failed:" >&2
    cat "$workdir/ticket.json" >&2
    exit 1
  fi
  if [ $(( $(date +%s) - start )) -gt "$budget" ]; then
    echo "FAIL: ticket $ticket not done within ${budget}s:" >&2
    cat "$workdir/ticket.json" >&2
    exit 1
  fi
  sleep 0.2
done
elapsed=$(( $(date +%s) - start ))
echo "   escalation done in ${elapsed}s"

echo "== post-escalation: the same query is now a sim-cache hit"
curl -sf "$base/query?topo=SF(q=5,p=3)&routing=MIN&pattern=WC&load=0.18" > "$workdir/sim.json"
grep -q '"tier": "sim-cache"' "$workdir/sim.json" || {
  echo "FAIL: escalated point not answered from the sim-cache tier:" >&2
  cat "$workdir/sim.json" >&2
  exit 1
}

echo "== telemetry: every tier's latency histogram and both screening counters are on /telemetry"
curl -sf "$base/telemetry" > "$workdir/telemetry.json"
for name in query_ms.fluid query_ms.fluid-cache query_ms.sim-cache screen.estimates screen.escalations; do
  grep -q "\"$name\":" "$workdir/telemetry.json" || {
    echo "FAIL: /telemetry lacks $name:" >&2
    cat "$workdir/telemetry.json" >&2
    exit 1
  }
done

echo "== drain: SIGTERM must exit 0 after finishing in-flight work"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
  echo "FAIL: diam2serve exited $rc on SIGTERM:" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
grep -q 'diam2serve: drained' "$workdir/serve.log" || {
  echo "FAIL: no drain confirmation in the log:" >&2
  cat "$workdir/serve.log" >&2
  exit 1
}

echo "PASS: fluid -> fluid-cache -> escalation ticket ($ticket, ${elapsed}s) -> sim-cache, metered on /telemetry, drained cleanly on SIGTERM"
