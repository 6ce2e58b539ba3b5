#!/usr/bin/env bash
# One-shot verification gate - the CI entrypoint.
#
#   scripts/check.sh          configure + build (warnings-as-errors) +
#                             clang-tidy lint + full test suite + the
#                             symbol reach check (a second, -O0 build)
#   scripts/check.sh --quick  build + lint, then only the labelled ctest
#                             suites (cli, fleet, obs, chaos, daemon,
#                             determinism, fuzz, fusion and the lint
#                             label's analyzer suite), the src reach
#                             check and the perf smokes listed below
#   scripts/check.sh --fuzz   build the fuzz preset (ASan+UBSan) and run
#                             each fuzz target the build lists in
#                             build-fuzz/fuzz/fuzz_targets.txt for a
#                             short budget (OFFRAMPS_FUZZ_SECONDS per
#                             target, default 30) over its checked-in
#                             corpus; any crash fails by exit code
#
# The lint step degrades to a skip message when clang-tidy is not
# installed; everything else must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
fuzz=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
elif [[ "${1:-}" == "--fuzz" ]]; then
  fuzz=1
fi

jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${fuzz}" -eq 1 ]]; then
  budget="${OFFRAMPS_FUZZ_SECONDS:-30}"
  echo "==> configure (preset: fuzz, ASan+UBSan)"
  cmake --preset fuzz
  echo "==> build fuzz targets"
  cmake --build --preset fuzz -j "${jobs}"
  # fuzz/CMakeLists.txt lists every target with its corpus here.
  manifest=build-fuzz/fuzz/fuzz_targets.txt
  while read -r target corpus; do
    echo "==> ${target}: corpus replay + ${budget}s mutation run"
    "./build-fuzz/fuzz/${target}" --time "${budget}" "${corpus}" </dev/null
  done < "${manifest}"
  echo "==> all $(wc -l < "${manifest}") fuzz targets passed"
  exit 0
fi

echo "==> configure (preset: default, warnings are errors)"
cmake --preset default

echo "==> build"
cmake --build --preset default -j "${jobs}"

echo "==> lint (clang-tidy)"
cmake --build --preset lint

if [[ "${quick}" -eq 0 ]]; then
  echo "==> tests"
  ctest --preset default -j "${jobs}"
  # ...then that every library function is linked by a run, not only by
  # tests.  It builds the tree again at -O0 with gc-sections, which takes
  # minutes, so it is a full-mode step and not a ctest.
  echo "==> symbol reach (scripts/check_symbol_reach.sh)"
  scripts/check_symbol_reach.sh
else
  # Quick mode still checks every CLI's contract: the flag parser's
  # unit tests and each tool's exact exit code on an unknown flag, a
  # missing value and a malformed or out-of-range value.
  echo "==> cli suite (ctest -L cli)"
  ctest --preset default -L cli -j "${jobs}"
  # ...and that every src/ header is reached by a run, not only by tests
  # (the tier-1 ctest src_reach runs the same script).
  echo "==> src reach (scripts/check_src_reach.sh)"
  scripts/check_src_reach.sh
  # ...and smoke-checks the fleet service end to end (unit tests,
  # detector edge cases, and the fleet CLI exit-code contracts).
  echo "==> fleet suite (ctest -L fleet)"
  ctest --preset default -L fleet -j "${jobs}"
  # ...and the observability layer: obs unit tests, strict-parse CLI
  # contracts, and the bench_obs < 2% disabled-overhead gate.
  echo "==> obs suite (ctest -L obs)"
  ctest --preset default -L obs -j "${jobs}"
  # ...and the fault-tolerance layer: supervisor/backoff/watchdog units,
  # checkpoint format, and the chaos-campaign + stop/resume CLI drills.
  echo "==> chaos suite (ctest -L chaos)"
  ctest --preset default -L chaos -j "${jobs}"
  # ...and the service layer: wire/session/cache units, the daemon
  # socket + stdin + replay smokes, and the session-chaos drills.
  echo "==> daemon suite (ctest -L daemon)"
  ctest --preset default -L daemon -j "${jobs}"
  # ...and the determinism contract: the scheduler's order against a
  # reference heap, the pinned report digests (small fleet, demo
  # campaign, fault sweep), the event-count pins of the monitors and
  # the UART, and the Trojan suite with its deep-queue run digests, plus
  # the cross-worker and replay byte-identity drills.
  echo "==> determinism suite (ctest -L determinism)"
  ctest --preset default -L determinism -j "${jobs}"
  # ...and the checked-in fuzz corpora through every decoder, with the
  # session-wire harness's chunked-versus-whole-buffer parse check.
  echo "==> fuzz corpus replay (ctest -L fuzz)"
  ctest --preset default -L fuzz -j "${jobs}"
  # ...and the fusion layer: channel naming and channel-list order
  # units, the pick_first_trip verdict rule, per-channel attribution,
  # and the multi-modal CLI acceptance drill.
  echo "==> fusion suite (ctest -L fusion)"
  ctest --preset default -L fusion -j "${jobs}"
  # ...and the static analyzer: the pass list and its emission order,
  # pass selection and severity overrides, the lint CLI contracts, and
  # the static checks of every Flaw3D variant.
  echo "==> analyzer suite (ctest -L lint)"
  ctest --preset default -L lint -j "${jobs}"
  # ...and the perf gates as smoke runs: events/s floor,
  # metrics-enabled fleet overhead, cold-vs-warm reference-cache
  # speedup.  On plain builds the thresholds enforce by
  # exit code; under sanitizers the benches downgrade themselves to
  # report-only (bench::built_with_sanitizers), so this stays a
  # correctness smoke there.
  echo "==> perf smoke (bench_parallel / bench_obs / bench_cache)"
  ./build/bench/bench_parallel --jobs 2
  ./build/bench/bench_obs --jobs 2
  ./build/bench/bench_cache --jobs 2
fi

echo "==> all checks passed"
