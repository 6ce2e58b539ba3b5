#!/usr/bin/env bash
# Fails when a library function under src/ is reached by no run: a
# strong (T) symbol of one of the src/ archives that no non-test
# executable (everything under bench/, examples/ and fuzz/, plus
# offramps_fleetd and offramps_lint) and not perfbench links.  Code that
# only tests link belongs with the tests, or nowhere.
#
#   scripts/check_symbol_reach.sh    exit 0 when every function is
#                                    reached, 1 listing each one that is
#                                    not
#
# It builds the tree and the perfbench package in a temporary directory
# at -O0 (so small functions are not inlined out of the symbol tables),
# with -ffunction-sections -fdata-sections and -Wl,--gc-sections (so a
# function stays in an executable only when something in it calls it),
# and CMAKE_BUILD_TYPE=None (which adds no flags of its own).  That is a
# whole second build, minutes long: scripts/check.sh runs it in full
# mode only, and it is not a ctest.
#
# The allowlist holds the observers the tests assert through; nothing
# else may be test-only.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=(
  "offramps::analyze::AnalysisResult::count(offramps::analyze::FindingCode) const"
  "offramps::detect::GoldenFreeReport::count(offramps::detect::Rule) const"
  "offramps::core::Fpga::max_prop_delay() const"
  "offramps::plant::Printer::axis(offramps::sim::Axis)"
  "offramps::svc::RefCache::stats() const"
)

jobs="$(nproc 2>/dev/null || echo 4)"
work="$(mktemp -d "${TMPDIR:-/tmp}/offramps-symbol-reach.XXXXXX")"
trap 'rm -rf "${work}"' EXIT

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "==> build the tree (-O0, gc-sections) in ${work}/tree" >&2
cmake -S . -B "${work}/tree" -G "Unix Makefiles" "${flags[@]}" >/dev/null
# Only the libraries and the non-test executables: the test binaries are
# not needed, and they are most of the build.
for dir in src bench examples fuzz; do
  make -C "${work}/tree/${dir}" -j "${jobs}" >/dev/null
done

echo "==> build perfbench (-O0, gc-sections) in ${work}/perfbench" >&2
cmake -S perfbench -B "${work}/perfbench" -G "Unix Makefiles" "${flags[@]}" \
  >/dev/null
cmake --build "${work}/perfbench" -j "${jobs}" --target perfbench >/dev/null

mapfile -t exes < <(
  find "${work}/tree/bench" "${work}/tree/examples" "${work}/tree/fuzz" \
       -maxdepth 1 -type f -perm -u+x
  echo "${work}/tree/src/host/offramps_fleetd"
  echo "${work}/tree/src/host/offramps_lint"
  echo "${work}/perfbench/perfbench")
mapfile -t archives < <(find "${work}/tree/src" -name 'lib*.a' | sort)
echo "==> ${#exes[@]} executables, ${#archives[@]} archives" >&2

# Demangled names, one a line, of the text symbols of `nm` output whose
# type letter is in $1.
text_symbols() {
  awk -v types="$1" 'NF >= 3 && index(types, $2) > 0 {
    sub(/^[^ ]+ [^ ] /, ""); print }'
}

linked="${work}/linked.txt"
for exe in "${exes[@]}"; do
  nm -C --defined-only "${exe}" | text_symbols "TtWw"
done | sort -u > "${linked}"

defined="${work}/defined.txt"
for archive in "${archives[@]}"; do
  nm -C --defined-only "${archive}" 2>/dev/null | text_symbols "T"
done | sort -u > "${defined}"

allowed="${work}/allowed.txt"
printf '%s\n' "${allowlist[@]}" | sort -u > "${allowed}"

unreached="$(comm -23 "${defined}" "${linked}" | comm -23 - "${allowed}")"
if [[ -n "${unreached}" ]]; then
  while IFS= read -r symbol; do
    echo "unreached: ${symbol} (no non-test executable links it)"
  done <<< "${unreached}"
  exit 1
fi
echo "==> every library function is reached by a run" >&2
