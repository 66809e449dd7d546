#!/bin/bash
# Regenerates every paper table. Usage: ./run_tables.sh [scale] [extra flags...]
#   ./run_tables.sh small
#   ./run_tables.sh paper --episodes 1000
# Any binary that fails (a crash, or an argument it refuses) stops the run:
# pipefail keeps its exit status through the `tee`.
set -euo pipefail
cd "$(dirname "$0")"
SCALE="${1:-small}"
shift || true
mkdir -p reports
for bin in table1 table2 table3 table4 table5 table6 timing ablation_encoder; do
  echo "=== $bin ($(date +%H:%M:%S)) ==="
  ./target/release/$bin --scale "$SCALE" "$@" 2>&1 | tee reports/${bin}.log
done
echo "ALL TABLES DONE $(date +%H:%M:%S)"
