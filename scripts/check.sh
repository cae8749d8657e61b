#!/usr/bin/env bash
# Local full verification: lint, configure, build (warnings as errors) and
# run every ctest test. That includes the examples and the end-to-end
# round-trips of scripts/smoke.py (serve, query, region, trace, snapshot,
# benches, CLI), all labelled `smoke`. CI runs the lints through --lint and
# the rest through the CMake presets.
#
#   --lint   run only the source lints (no build) and exit: only src/io/
#            renames, links or copies files, and only
#            tests/support/temp_dir.hpp names a path under the system
#            temp directory
#
# ThreadSanitizer has its own preset:
#   cmake --preset tsan && cmake --build --preset tsan && ctest --preset tsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-check}"

LINT_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --lint) LINT_ONLY=1 ;;
    *) echo "usage: $0 [--lint]" >&2; exit 2 ;;
  esac
done

# Lints. The snapshot publish policy (temp name, fsync, rename, latest link)
# lives in src/io/ only; a file call anywhere else in src/ is a second,
# hand-rolled publish path. Tests and benches take scratch space from the
# per-process helper, never a fixed name that parallel ctest processes share.
lint() {
  local hits
  hits=$(grep -rnE '(fs|filesystem)::(rename|copy_file|create_hard_link)|[^_a-z]::rename\(|[^_a-z.]link\(' \
           src --include=*.cpp --include=*.hpp | grep -v '^src/io/' || true)
  if [ -n "$hits" ]; then
    echo "FAIL: file rename/link/copy outside src/io/ (publish through io::write_snapshot / io::publish_latest):" >&2
    echo "$hits" >&2
    return 1
  fi
  hits=$(grep -rn 'temp_directory_path()' tests bench | grep -v '^tests/support/temp_dir\.hpp:' || true)
  if [ -n "$hits" ]; then
    echo "FAIL: temp_directory_path() outside tests/support/temp_dir.hpp (use test::temp_path or test::TempDir):" >&2
    echo "$hits" >&2
    return 1
  fi
  echo "lint OK"
}
lint
[ "$LINT_ONLY" = "0" ] || exit 0

# Prefer Ninja but don't require it: an existing cache keeps whatever
# generator configured it (passing -G against a differently-configured
# cache errors).
GENERATOR=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja > /dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi
cmake -B "$BUILD_DIR" "${GENERATOR[@]}" -DAPPSCOPE_WARNINGS_AS_ERRORS=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure

echo "ALL CHECKS PASSED"
