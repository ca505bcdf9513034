#!/usr/bin/env sh
# Orphan-header check: every header under src/ must be included as
# "<dir>/<name>.h" by some file in src, tools, bench, examples or hostbench
# other than its own <name>.h and <name>.cc. Tests do not count: a header
# that only its tests include is code nothing else reaches. Prints each
# orphan and exits 1 if there is one.
#
# Usage: scripts/orphan_headers.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

# One stream: every include line as `<file>:#include "<path>"`, then every
# header as `H src/<path>`.
orphans=$({
  grep -rHoE '^#include "[^"]+\.h"' \
    --include='*.h' --include='*.cc' --include='*.cpp' \
    src tools bench examples hostbench || true
  find src -name '*.h' | sort | sed 's/^/H /'
} | awk '
  /^H / {
    path = substr($0, 7)
    if (!(path in used)) {
      print substr($0, 3)
    }
    next
  }
  {
    file = $0
    sub(/:.*/, "", file)
    path = $0
    sub(/^[^"]*"/, "", path)
    sub(/"$/, "", path)
    # An include from the header itself or its own .cc does not count.
    stem = path
    sub(/\.h$/, "", stem)
    if (file != "src/" stem ".h" && file != "src/" stem ".cc") {
      used[path] = 1
    }
  }')

if [ -n "$orphans" ]; then
  echo "orphan_headers: included by nothing outside itself and tests/:"
  echo "$orphans" | sed 's/^/  /'
  exit 1
fi
echo "orphan_headers: ok ($(find src -name '*.h' | wc -l | tr -d ' ') headers)"
