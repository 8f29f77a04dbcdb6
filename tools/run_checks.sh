#!/usr/bin/env bash
# The full local gate: configure, build, and test every preset we ship —
#   default  (RelWithDebInfo, the tier-1 suite + alloc/fault labels)
#   asan     (AddressSanitizer build of the same suite)
#   tsan     (ThreadSanitizer; runs only tests labeled concurrency-sensitive)
#   bench-smoke (Release build; one tiny config of each BENCH_*-writing
#                bench, JSON written under build-release/results)
#   figures  (Release build; the deterministic figure benches must
#             reproduce the committed results/ files byte for byte)
#   simd     (the default build's ctest again under CGX_SIMD=off,
#             CGX_SIMD=sse2, CGX_SIMD=avx2 and CGX_NUMA=off: the
#             bit-identity matrix)
# Usage: tools/run_checks.sh [preset ...]   (no args = default+asan+tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

# Reruns a build's ctest with the SIMD kernels forced scalar, capped at
# SSE2 and capped at AVX2, then with NUMA placement disabled. The kernel
# layer's contract is that these runs are bit-identical to runtime dispatch
# (tests/util/simd_test.cpp checks per-kernel; this checks the whole suite
# end to end at every level). On an AVX-512 host, auto runs the zmm GEMM
# tiles, so the avx2 pass is the only end-to-end run of the AVX2 tiles
# there, as the sse2 pass is of the SSE2 backend. Thread pinning and arena
# homing never change results. Each SIMD pass first prints the level
# CGX_SIMD resolves to on this CPU (the dispatch test reports it), so a log
# shows which kernels actually ran.
simd_matrix() {
  local builddir=$1
  for simd in off sse2 avx2; do
    echo "==== [simd] CGX_SIMD=$simd: $(CGX_SIMD=$simd \
      "$builddir/tests/test_util" \
      --gtest_filter=SimdDispatch.AutoReachesBestLevelOfThisCpu |
      grep '^simd level:')"
    CGX_SIMD=$simd ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
  done
  echo "==== [simd] CGX_NUMA=off"
  CGX_NUMA=off ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
}

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan tsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  if [ "$preset" = simd ]; then
    echo "==== [simd] configure"
    cmake --preset default
    echo "==== [simd] build"
    cmake --build build -j "$jobs"
    simd_matrix build
    continue
  fi
  if [ "$preset" = bench-smoke ]; then
    # Smoke the perf artifact pipeline: Release build, then one tiny
    # configuration of every bench that writes a results/BENCH_*.json.
    # Run from the build dir so smoke JSON never clobbers committed results.
    echo "==== [bench-smoke] configure"
    cmake --preset release
    echo "==== [bench-smoke] build"
    cmake --build build-release -j "$jobs" --target \
      bench_overlap bench_dag_overlap bench_micro_collectives \
      bench_micro_compressors bench_micro_compute bench_micro_memory \
      bench_multinode bench_elastic bench_table7_adaptive
    echo "==== [bench-smoke] run"
    (cd build-release && ./bench/bench_overlap --smoke)
    (cd build-release && ./bench/bench_dag_overlap --smoke)
    (cd build-release && ./bench/bench_multinode --smoke)
    (cd build-release && ./bench/bench_elastic --smoke)
    (cd build-release && ./bench/bench_table7_adaptive --smoke)
    (cd build-release && ./bench/bench_micro_collectives --smoke)
    (cd build-release && ./bench/bench_micro_compressors --smoke)
    (cd build-release && ./bench/bench_micro_compute --smoke)
    (cd build-release && ./bench/bench_micro_memory --smoke)
    continue
  fi
  if [ "$preset" = figures ]; then
    # The analytic figure benches are deterministic: rerun them in a temp
    # dir (every bench writes under results/ in its working directory) and
    # compare with the committed files. fig03 is compared on its analytic
    # columns 1-7 only; columns 8-9 are wall-clock timings of the real
    # engine.
    figs=(bench_ablation_buckets bench_ablation_hierarchical
      bench_fig01_compression_sweep bench_fig04_adaptive_training
      bench_fig05_adaptive_error bench_table5_multinode bench_fig03_throughput)
    echo "==== [figures] configure"
    cmake --preset release
    echo "==== [figures] build"
    cmake --build build-release -j "$jobs" --target "${figs[@]}"
    echo "==== [figures] run"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    root=$PWD
    for bench in "${figs[@]}"; do
      (cd "$tmp" && "$root/build-release/bench/$bench" > /dev/null)
    done
    for f in ablation_buckets.csv ablation_hierarchical.csv \
      fig01_compression_sweep.csv fig04_adaptive_training.csv \
      fig05_adaptive_error.csv table5_multinode.csv \
      table5_multinode.json; do
      cmp "$tmp/results/$f" "results/$f"
    done
    cmp <(cut -d, -f1-7 "$tmp/results/fig03_throughput.csv") \
      <(cut -d, -f1-7 results/fig03_throughput.csv)
    echo "==== [figures] results/ reproduced"
    continue
  fi
  echo "==== [$preset] configure"
  cmake --preset "$preset"
  case "$preset" in
    default) builddir=build ;;
    *) builddir="build-$preset" ;;
  esac
  echo "==== [$preset] build"
  cmake --build "$builddir" -j "$jobs"
  echo "==== [$preset] test"
  if [ "$preset" = tsan ]; then
    # Sanitizer-interposed allocators and slow full runs aren't the point
    # here: run the concurrency-sensitive subset (includes the fault and
    # memory-subsystem suites — the arena is shared rank/comm-thread state).
    ctest --test-dir "$builddir" -L tsan --output-on-failure -j "$jobs"
  elif [ "$preset" = asan ]; then
    # Full suite once, plus the memory-subsystem label by itself: arena
    # carving, buffer growth, and the copy kernels are exactly where
    # out-of-bounds writes would hide, so they get a dedicated pass.
    ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
    ctest --test-dir "$builddir" -L memory --output-on-failure -j "$jobs"
  else
    # Runtime dispatch, then the SIMD/NUMA bit-identity matrix.
    ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
    simd_matrix "$builddir"
    # The simulated-fabric suite once more by label: virtual-time results
    # must be bit-identical whatever the SIMD/NUMA settings above did.
    ctest --test-dir "$builddir" -L multinode --output-on-failure -j "$jobs"
    # And the elastic-membership suite by label: crash sweeps, the seeded
    # soak, epoch fencing, and rejoin are the robustness tier-1 gate.
    ctest --test-dir "$builddir" -L elastic --output-on-failure -j "$jobs"
    # The DAG-executor suite by label: scheduler unit tests, Graph
    # bit-identity across pool sizes, and the ordered multi-lane streaming
    # composition (its tsan soaks additionally ride the tsan preset).
    ctest --test-dir "$builddir" -L dag --output-on-failure -j "$jobs"
    # The adaptive-policy suite by label: DP solver determinism, hot-swap
    # bit-identity among unchanged layers, and the DGC-vs-plain-topk
    # convergence smoke (also rides the tsan preset).
    ctest --test-dir "$builddir" -L adaptive --output-on-failure -j "$jobs"
  fi
done
echo "==== all presets passed"
