#!/usr/bin/env bash
# Run every workload untraced, then traced, at one seed; each prints its
# metrics by name with their units, then one JSON line.
#     bash perfbench/all.sh [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."
for trace in 0 1; do
  for workload in bundled hires_regions bank_build; do
    echo "== $workload seed ${1:-42} trace $trace"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-42}" --trace "$trace"
  done
done
