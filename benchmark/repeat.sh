#!/usr/bin/env bash
# Runs every workload N times (seeds seed … seed+N-1, workload order
# alternating), prints min / median / max and the spread of each
# end-to-end metric, and fails if a spread exceeds the metric's bound in
# BENCHMARK.json.
#
#   benchmark/repeat.sh N [--workload NAME] [--seed N] [--seconds S]
set -euo pipefail
if [ $# -lt 1 ]; then
    echo "usage: repeat.sh N [--workload NAME] [--seed N] [--seconds S]" >&2
    exit 2
fi
n="$1"
shift
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "$n" "$@"
