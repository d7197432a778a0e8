#!/bin/bash
# Regenerates every table and figure of the paper at full scale.
#
# VT_THREADS controls the worker-pool size of the parallel sweep stage
# (default: the machine's available parallelism; 1 = the exact sequential
# code path). Any value produces bit-identical statistics.
set -e
cd "$(dirname "$0")"
VT_THREADS="${VT_THREADS:-0}"

echo "=============================================================="
echo "== vtsweep (kernel x architecture grid, VT_THREADS=$VT_THREADS)"
echo "=============================================================="
# vtsweep takes its own options, so of the figure/table flags only
# --quick is translated (to its quick scale). --check re-verifies
# parallel == sequential on the fly.
SWEEP_ARGS=()
for a in "$@"; do
  if [[ "$a" == "--quick" ]]; then SWEEP_ARGS=(--scale quick); fi
done
cargo run --release -q -p vt-bench --bin vtsweep -- --threads "$VT_THREADS" "${SWEEP_ARGS[@]}" --check 2>/dev/null
echo

BINS="tab01_config tab02_benchmarks tab03_overhead tab04_energy fig01_limiter fig02_utilization fig03_speedup fig04_alternatives fig05_slots_sweep fig06_swap_latency fig07_scheduler fig08_idle_breakdown fig09_trigger_ablation fig10_timeline fig11_cache_sensitivity fig12_latency_sensitivity fig13_adaptive_throttle"
for b in $BINS; do
  echo "=============================================================="
  echo "== $b"
  echo "=============================================================="
  cargo run --release -q -p vt-bench --bin "$b" -- "$@" 2>/dev/null
  echo
done
