#!/usr/bin/env bash
# Fails when a header under src/ is reached by no run: nothing in src/
# (other than the header's own .cpp), examples/, bench/, perfbench/ or
# fuzz/ includes it.  Code that only tests include belongs with the
# tests, or nowhere.
#
#   scripts/check_src_reach.sh    exit 0 when every header is reached,
#                                 1 listing each one that is not
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS= read -r header; do
  own="${header%.hpp}.cpp"
  includers=$(grep -rlF --include='*.hpp' --include='*.cpp' \
                "#include \"${header#src/}\"" \
                src examples bench perfbench fuzz |
              grep -cvxF "${own}" || true)
  if [[ "${includers}" -eq 0 ]]; then
    echo "unreached: ${header} (no includer outside tests/)"
    status=1
  fi
done < <(find src -name '*.hpp' | sort)
exit "${status}"
