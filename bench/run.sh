#!/usr/bin/env bash
# One command for the repo benchmark: builds the harness from source
# inside bench/.build (compiler cache included, so nothing is written
# outside the checkout) and runs it.
#
#   bench/run.sh                       all four workloads, untraced then traced
#   bench/run.sh -workload serve-point -trace 0 -seed 7 -seconds 15
#   bench/run.sh -repeat 10            spread of every end-to-end metric over 10 seeds
#   bench/run.sh -smoke                seconds-long self-check at test scale
#
# The benchmark driver calls it as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/.build"
export GOCACHE="$here/.build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o .build/mlpbench .)
exec "$here/.build/mlpbench" -out "$here/out" "$@"
