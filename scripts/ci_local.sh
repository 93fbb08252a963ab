#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: build-test matrix (gcc + clang ×
# Debug + Release with -Werror), ASan/UBSan and TSan legs, the server-soak
# leg (concurrent-cache stress + loopback advice-server suite under both
# sanitizers), the SIMD-dispatch,
# forced-modal-solver and execution-placement (pinned + no-NUMA fallback)
# suite reruns, the clang-format check, the bench-regression gate and the
# bench_e2e build + smoke runs — each leg skipped (not failed) when
# this machine lacks the tool it needs, so the script is useful on minimal
# containers and full workstations alike.
#
# Usage: scripts/ci_local.sh [--quick]
#   --quick   first available compiler only, Release only (pre-push check)
#
# Exit code 0 = every leg that ran passed; any failure aborts immediately.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD_ROOT="$ROOT/build-ci"
JOBS=$(nproc 2>/dev/null || echo 2)
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

note() { printf '\n==== %s ====\n' "$*"; }
skip() { printf -- '---- skipped: %s\n' "$*"; }

GENERATOR_ARGS=()
command -v ninja >/dev/null 2>&1 && GENERATOR_ARGS=(-G Ninja)

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                 -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# configure_build_test <dir> <extra cmake args...>
configure_build_test() {
  local dir="$1"; shift
  mkdir -p "$dir"
  cmake -S "$ROOT" -B "$dir" "${GENERATOR_ARGS[@]}" "${LAUNCHER_ARGS[@]}" \
        "$@" >"$dir.configure.log" 2>&1 ||
    { cat "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# ---- build-test matrix -----------------------------------------------------
COMPILERS=()
command -v g++ >/dev/null 2>&1 && COMPILERS+=("gcc:g++")
command -v clang++ >/dev/null 2>&1 && COMPILERS+=("clang:clang++")
[[ ${#COMPILERS[@]} -eq 0 ]] && { echo "no C++ compiler found" >&2; exit 1; }

BUILD_TYPES=(Debug Release)
if [[ $QUICK -eq 1 ]]; then
  COMPILERS=("${COMPILERS[0]}")
  BUILD_TYPES=(Release)
fi

for entry in "${COMPILERS[@]}"; do
  name="${entry%%:*}" cxx="${entry##*:}"
  for build_type in "${BUILD_TYPES[@]}"; do
    note "build-test: $name $build_type (-Werror)"
    configure_build_test "$BUILD_ROOT/$name-$build_type" \
      -DCMAKE_CXX_COMPILER="$cxx" \
      -DCMAKE_BUILD_TYPE="$build_type" \
      -DHOTPOTATO_WERROR=ON
  done
done

# ---- sanitizer legs --------------------------------------------------------
has_sanitizer() {  # has_sanitizer <comma-list>
  echo 'int main() { return 0; }' >"$BUILD_ROOT/san_probe.cpp"
  c++ "-fsanitize=$1" -o "$BUILD_ROOT/san_probe" "$BUILD_ROOT/san_probe.cpp" \
    >/dev/null 2>&1
}
mkdir -p "$BUILD_ROOT"

if [[ $QUICK -eq 0 ]] && has_sanitizer address,undefined; then
  note "asan-ubsan"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=halt_on_error=1 \
  configure_build_test "$BUILD_ROOT/asan" \
    -DCMAKE_BUILD_TYPE=Debug -DHOTPOTATO_SANITIZE=address,undefined
elif [[ $QUICK -eq 0 ]]; then
  skip "asan-ubsan (toolchain lacks -fsanitize=address,undefined)"
fi

if [[ $QUICK -eq 0 ]] && has_sanitizer thread; then
  note "tsan"
  TSAN_OPTIONS=halt_on_error=1 \
  configure_build_test "$BUILD_ROOT/tsan" \
    -DCMAKE_BUILD_TYPE=Debug -DHOTPOTATO_SANITIZE=thread
elif [[ $QUICK -eq 0 ]]; then
  skip "tsan (toolchain lacks -fsanitize=thread)"
fi

# ---- server soak -----------------------------------------------------------
# Mirrors the `server-soak` CI job: the 32-thread concurrent-cache stress
# (ConcurrentCache*), HotPotato's runs on the same cache (PeakCache*) and
# the loopback advice-server suite (Server*), whose
# concurrent-clients test byte-compares every answer against the
# single-threaded batch path, repeated under each sanitizer build from the
# legs above. Reuses those build trees — only the repetition and the filter
# are soak-specific.
SOAK_RE='ConcurrentCache|PeakCache|Server'
if [[ $QUICK -eq 0 && -d "$BUILD_ROOT/tsan" ]]; then
  note "server-soak: cache stress + loopback suite under TSan (x3)"
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$BUILD_ROOT/tsan" --output-on-failure -j "$JOBS" \
      --repeat until-fail:3 -R "$SOAK_RE"
elif [[ $QUICK -eq 0 ]]; then
  skip "server-soak TSan leg (no tsan build dir)"
fi
if [[ $QUICK -eq 0 && -d "$BUILD_ROOT/asan" ]]; then
  note "server-soak: cache stress + loopback suite under ASan/UBSan (x3)"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$BUILD_ROOT/asan" --output-on-failure -j "$JOBS" \
      --repeat until-fail:3 -R "$SOAK_RE"
elif [[ $QUICK -eq 0 ]]; then
  skip "server-soak ASan leg (no asan build dir)"
fi

# ---- SIMD dispatch tiers ---------------------------------------------------
# Mirrors the `dispatch` CI job: the full suite must pass with the dispatch
# forced to each tier. Reuses the first Release build; no reconfigure needed
# because the tier is chosen at runtime from HOTPOTATO_DISPATCH.
DISPATCH_DIR="$BUILD_ROOT/${COMPILERS[0]%%:*}-Release"
if [[ -d "$DISPATCH_DIR" ]]; then
  for tier in avx2 scalar; do
    note "dispatch: full suite under HOTPOTATO_DISPATCH=$tier"
    HOTPOTATO_DISPATCH="$tier" \
      ctest --test-dir "$DISPATCH_DIR" --output-on-failure -j "$JOBS"
  done
else
  skip "dispatch (no Release build dir)"
fi

# ---- forced modal solver ---------------------------------------------------
# Mirrors the `modal-solver` CI job: HOTPOTATO_SOLVER overrides auto backend
# selection, so every unpinned StudySetup/make_solver call in the suite runs
# on the truncated-modal thermal solver — transients and peaks, and also the
# TSP budgets and simulator initial temperatures, which are solved through
# the backend. Reuses the first Release build; the backend is chosen at
# runtime from the environment.
MODAL_DIR="$BUILD_ROOT/${COMPILERS[0]%%:*}-Release"
if [[ -d "$MODAL_DIR" ]]; then
  # The 1024-core setup fingerprint, ring-memo check and warmed-step
  # allocation guard skip themselves in Debug builds; run them by name in
  # this Release tree, as the CI job does.
  note "modal solver: 1024-core setup fingerprint"
  ctest --test-dir "$MODAL_DIR" --output-on-failure \
    -R 'SetupFingerprint\.Paper1024Core'
  note "modal solver: 1024-core ring memo"
  ctest --test-dir "$MODAL_DIR" --output-on-failure \
    -R 'PrunedPeakScale\.Paper1024CoreMemoMatchesFreshWorkspaces'
  note "modal solver: 1024-core warmed step allocation guard"
  ctest --test-dir "$MODAL_DIR" --output-on-failure \
    -R 'AllocGuard\.WarmedSimulatorMicroStepIsAllocationFreeOn1024Core'
  note "modal solver: full suite under HOTPOTATO_SOLVER=modal"
  HOTPOTATO_SOLVER=modal \
    ctest --test-dir "$MODAL_DIR" --output-on-failure -j "$JOBS"
  # Algorithm 1's bound-pruned loop rounds per tier (matmat, bound_matvec)
  # and on modal chips also folds in the dropped-cluster correction, so the
  # forced modal suite also runs under each pinned dispatch tier (scalar
  # guards the portable fallback, avx2 the FMA reductions).
  for tier in scalar avx2; do
    note "modal solver: full suite under HOTPOTATO_SOLVER=modal HOTPOTATO_DISPATCH=$tier"
    HOTPOTATO_SOLVER=modal HOTPOTATO_DISPATCH="$tier" \
      ctest --test-dir "$MODAL_DIR" --output-on-failure -j "$JOBS"
  done
else
  skip "modal solver (no Release build dir)"
fi

# ---- fault matrix ----------------------------------------------------------
# Mirrors the `fault-matrix` CI job: the resilience suite (kill-and-resume,
# journal corruption, deadline watchdog, retry against an intermittently-
# failing scheduler factory, the metrics JSON reader journal resume decodes
# through, CLI exit codes) under ASan+UBSan, repeated to
# shake out scheduling-dependent flakiness. Reuses the asan build when the
# full leg ran; otherwise falls back to the first build-test tree.
FAULT_MATRIX_RE='ResumeAfterKill|Journal|Resume\.|RetryPolicy|FailureClassification|DeadlineWatchdog|AtomicExports|JsonExport|MetricsJson|CliExitCodes|CliRun\.Campaign'
FAULT_DIR="$BUILD_ROOT/asan"
[[ -d "$FAULT_DIR" ]] || FAULT_DIR="$BUILD_ROOT/${COMPILERS[0]%%:*}-${BUILD_TYPES[0]}"
if [[ -d "$FAULT_DIR" ]]; then
  note "fault matrix: resilience suite in $FAULT_DIR (x2)"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$FAULT_DIR" --output-on-failure -j "$JOBS" \
      --repeat until-fail:2 -R "$FAULT_MATRIX_RE"
else
  skip "fault matrix (no build dir)"
fi

# ---- execution placement ---------------------------------------------------
# Mirrors the `numa-exec` CI job. First the campaign + resilience suites with
# HOTPOTATO_PIN=compact (run_campaign's env override pins every worker, and
# records must stay bit-identical); then a separate HOTPOTATO_EXEC_NUMA=OFF
# build whose topology discovery is the single-node fallback unconditionally —
# what a host without sysfs/NUMA support gets.
EXEC_MATRIX_RE='Campaign|Exec|Arena|Topology|CpuList|Pin|WorkerScratch|Resume|Journal|Retry|DeadlineWatchdog|AllocGuard|StudySetup'
EXEC_DIR="$BUILD_ROOT/${COMPILERS[0]%%:*}-Release"
if [[ -d "$EXEC_DIR" ]]; then
  note "numa-exec: campaign + resilience suites under HOTPOTATO_PIN=compact"
  HOTPOTATO_PIN=compact \
    ctest --test-dir "$EXEC_DIR" --output-on-failure -j "$JOBS" \
      -R "$EXEC_MATRIX_RE"
else
  skip "numa-exec pinned leg (no Release build dir)"
fi
if [[ $QUICK -eq 0 ]]; then
  note "numa-exec: full suite with HOTPOTATO_EXEC_NUMA=OFF (forced fallback)"
  configure_build_test "$BUILD_ROOT/nonuma" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHOTPOTATO_WERROR=ON \
    -DHOTPOTATO_EXEC_NUMA=OFF
else
  skip "numa-exec no-NUMA build (--quick)"
fi

# ---- format ----------------------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  note "clang-format check"
  find src tests bench examples \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 clang-format --dry-run -Werror
else
  skip "clang-format (not installed)"
fi

# ---- bench regression gate -------------------------------------------------
# Mirrors the `bench` CI job: both smoke benchmarks, a check that they left
# the committed BENCH_*.json files untouched and that bench_hotpath refuses
# an unknown flag, then one check_bench.py invocation gating both against
# the committed smoke baselines.
if command -v python3 >/dev/null 2>&1; then
  note "bench regression gate (smoke: hotpath + server)"
  BENCH_DIR="$BUILD_ROOT/${COMPILERS[0]%%:*}-Release"
  [[ -d "$BENCH_DIR" ]] || BENCH_DIR="$BUILD_ROOT/$(ls "$BUILD_ROOT" | grep -m1 Release || true)"
  cmake --build "$BENCH_DIR" -j "$JOBS" --target bench_hotpath bench_server
  "$BENCH_DIR/bench/bench_hotpath" --smoke --out "$BUILD_ROOT/bench_smoke.json"
  "$BENCH_DIR/bench/bench_server" --smoke --out "$BUILD_ROOT/bench_server_smoke.json"
  note "bench: committed baselines untouched, unknown flag refused"
  if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1; then
    git diff --exit-code -- 'BENCH_*.json'
  else
    skip "baseline diff (not a git checkout)"
  fi
  if "$BENCH_DIR/bench/bench_hotpath" --no-such-flag; then
    echo "bench_hotpath accepted --no-such-flag" >&2
    exit 1
  fi
  python3 scripts/check_bench.py \
    "$BUILD_ROOT/bench_smoke.json" "$BUILD_ROOT/bench_server_smoke.json" \
    --baseline BENCH_hotpath_smoke.json BENCH_server_smoke.json
else
  skip "bench gate (python3 not installed)"
fi

# ---- end-to-end benchmark smoke --------------------------------------------
# Mirrors the `bench-e2e` CI job: bench_e2e/ is its own CMake project over
# ../src, so a src/ change that breaks it would pass every leg above. Build
# it and smoke-run every workload (untraced and traced).
note "bench-e2e: build + smoke runs"
cmake -S "$ROOT/bench_e2e" -B "$ROOT/.bench_build" >/dev/null
cmake --build "$ROOT/.bench_build" -j "$JOBS"
ctest --test-dir "$ROOT/.bench_build" -L benchmark --output-on-failure

note "ci_local: all legs that ran passed"
