#!/usr/bin/env bash
# loadgate.sh BENCH_gateway.json [MAX_P99_MS]
#
# Grades a cmd/lgload summary of a gateway load run and fails when the
# serving tier misbehaved:
#
#   - any 5xx response (server_5xx > 0)
#   - any transport-level error (errors > 0)
#   - any stale read: a response carrying an epoch older than one the
#     same sequential request chain already observed (stale_reads > 0),
#     which under RCU snapshot publication can only mean a broken
#     pointer swap
#   - the run ended before observing the required number of distinct
#     epochs (min_epochs_met != true) — the gateway stopped committing
#   - p99 latency above MAX_P99_MS (default 500) — 429s excluded from
#     neither: backpressure rejections are fast by construction
#   - zero requests recorded (a vacuous run must not pass)
#
# A missing summary fails: the step before the gate writes it, so its
# absence means the load run never happened. Uses only awk so CI needs
# no extra tooling; the summary is cmd/lgload's indented JSON, one
# "key": value per line.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    echo "usage: $0 BENCH_gateway.json [max_p99_ms]" >&2
    exit 2
fi

summary="$1"
max_p99_ms="${2:-500}"

if [ ! -f "$summary" ]; then
    echo "FAIL: $summary missing" >&2
    exit 1
fi

# field KEY -> first value of a `"KEY": value,` line (empty if absent).
field() {
    awk -v key="\"$1\":" '$1 == key { v = $2; sub(/,$/, "", v); print v; exit }' "$summary"
}

requests="$(field requests_issued)"
errors="$(field errors)"
server_5xx="$(field server_5xx)"
stale_reads="$(field stale_reads)"
min_epochs_met="$(field min_epochs_met)"
epochs="$(field epochs_observed)"
p99_ns="$(field p99_ns)"
qps="$(field sustained_qps)"

for v in requests errors server_5xx stale_reads min_epochs_met p99_ns; do
    if [ -z "$(eval "printf '%s' \"\$$v\"")" ]; then
        echo "FAIL: $summary lacks field $v" >&2
        exit 1
    fi
done

fail=0
if [ "$requests" -le 0 ]; then
    echo "FAIL: zero requests recorded" >&2
    fail=1
fi
if [ "$errors" -ne 0 ]; then
    echo "FAIL: $errors transport errors" >&2
    fail=1
fi
if [ "$server_5xx" -ne 0 ]; then
    echo "FAIL: $server_5xx responses with status 5xx" >&2
    fail=1
fi
if [ "$stale_reads" -ne 0 ]; then
    echo "FAIL: $stale_reads stale reads (epoch went backwards within a sequential request chain)" >&2
    fail=1
fi
if [ "$min_epochs_met" != "true" ]; then
    echo "FAIL: required epoch count not observed (saw ${epochs:-0} distinct epochs)" >&2
    fail=1
fi
p99_over="$(awk -v ns="$p99_ns" -v ms="$max_p99_ms" 'BEGIN { print (ns > ms * 1000000) ? 1 : 0 }')"
if [ "$p99_over" = "1" ]; then
    p99_ms="$(awk -v ns="$p99_ns" 'BEGIN { printf "%.1f", ns / 1000000 }')"
    echo "FAIL: p99 latency ${p99_ms}ms over the ${max_p99_ms}ms budget" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "ok: $requests requests, ${qps:-?} qps sustained, $epochs epochs, 0 errors/5xx/stale reads, p99 within ${max_p99_ms}ms"
