#!/usr/bin/env bash
# Fails when a public header include/carbon/<dir>/<name>.hpp is #included by
# nothing in src/, tools/, bench/, examples/ or another public header. The
# umbrella include/carbon/carbon.hpp and the header's own src/<dir>/<name>.cpp
# do not count as includers, and neither do the tests: a header only they
# reach is code no run reaches.
#
# Usage: tools/check_unreached_headers.sh
set -euo pipefail

cd "$(dirname "$0")/.."

unreached=()
for header in include/carbon/*/*.hpp; do
  rel="${header#include/}"          # carbon/<dir>/<name>.hpp
  stem="${rel#carbon/}"             # <dir>/<name>.hpp
  own_cpp="src/${stem%.hpp}.cpp"
  pattern="^[[:space:]]*#[[:space:]]*include[[:space:]]*[\"<]${rel//./\\.}[\">]"
  found=0
  while IFS= read -r file; do
    case "$file" in
      include/carbon/carbon.hpp | "$own_cpp" | "$header") ;;
      *) found=1; break ;;
    esac
  done < <(grep -rlE "$pattern" src tools bench examples include \
             --include='*.hpp' --include='*.cpp' --include='*.h' || true)
  if [[ $found -eq 0 ]]; then
    unreached+=("$stem")
  fi
done

if [[ ${#unreached[@]} -gt 0 ]]; then
  echo "public headers included only by tests, the umbrella or their own .cpp:" >&2
  printf '  %s\n' "${unreached[@]}" >&2
  exit 1
fi
echo "every public header has an includer outside tests"
