#!/bin/sh
# Verify the SoA batch kernel's inner loops actually vectorize
# (DESIGN.md §14). The kernel's speedup rests on its table and fold passes
# (fill_tables and walk_block, shared by every caller of the kernel)
# compiling to vector code; a refactor that
# reintroduces a branch (or drops -fno-trapping-math) silently falls back
# to scalar and only a careful bench read would notice. This check makes
# that regression loud: it compiles src/core/src/evaluate.cpp standalone
# with the same per-TU flags the build uses (src/core/CMakeLists.txt),
# captures the compiler's vectorization report (-fopt-info-vec-* on GCC,
# -Rpass{,-missed}=loop-vectorize on Clang), and fails unless both the
# table and fold passes, found by their `// simd-check:` markers, are
# reported vectorized. The coefficient-gather
# loop is exempt: baseline x86-64 has no double<->uint64 vector
# conversion, so it is expected to stay scalar there.
#
# Usage: tools/check_vectorization.sh [c++-compiler]   (default: $CXX, g++)
set -u

CXX=${1:-${CXX:-g++}}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TU=$ROOT/src/core/src/evaluate.cpp
OUT=$(mktemp) || exit 1
trap 'rm -f "$OUT"' EXIT

if "$CXX" --version 2>/dev/null | grep -qi clang; then
    REPORT="-Rpass=loop-vectorize -Rpass-missed=loop-vectorize"
else
    REPORT="-fopt-info-vec-optimized -fopt-info-vec-missed"
fi

# shellcheck disable=SC2086 -- REPORT is intentionally word-split
if ! "$CXX" -std=c++20 -O2 -fopenmp-simd -ffp-contract=off \
        -fno-trapping-math $REPORT \
        -I "$ROOT/src/core/include" -c "$TU" -o /dev/null 2> "$OUT"; then
    echo "check_vectorization: $CXX failed to compile $TU" >&2
    cat "$OUT" >&2
    exit 1
fi

# The loops that must vectorize carry a marker comment on a line of their
# own, at most two lines above their `#pragma omp simd`:
#   // simd-check: table pass   (basis tables, once per block)
#   // simd-check: fold pass    (per subspace and dimension)
# A missing or duplicated marker, or one with no pragma below it, fails
# the check. The compiler reports against the `for` line, so accept a
# report within two lines below each pragma.
failures=0
for tag in "table pass" "fold pass"; do
    marks=$(grep -n "// simd-check: $tag\$" "$TU" | cut -d: -f1)
    if [ "$(printf '%s' "$marks" | grep -c .)" -ne 1 ]; then
        echo "FAIL  $tag: expected one '// simd-check: $tag' marker in" \
             "$TU, found lines '$marks'" >&2
        failures=$((failures + 1))
        continue
    fi
    p=""
    for q in $((marks + 1)) $((marks + 2)) $((marks + 3)); do
        if sed -n "${q}p" "$TU" | grep -q "#pragma omp simd"; then
            p=$q
            break
        fi
    done
    if [ -z "$p" ]; then
        echo "FAIL  $tag: no '#pragma omp simd' within three lines below" \
             "its marker (line $marks)" >&2
        failures=$((failures + 1))
        continue
    fi
    hit=""
    for q in "$p" $((p + 1)) $((p + 2)); do
        hit=$(grep -E "evaluate\.cpp:$q:[0-9]+: *(optimized: loop vectorized|remark: vectorized loop)" "$OUT" | head -1)
        [ -n "$hit" ] && break
    done
    if [ -n "$hit" ]; then
        echo "ok    $tag at line $p: ${hit#*: }"
    else
        echo "FAIL  $tag at line $p: no vectorization report" >&2
        grep -E "evaluate\.cpp:($p|$((p + 1))|$((p + 2))):" "$OUT" >&2
        failures=$((failures + 1))
    fi
done

if [ "$failures" -ne 0 ]; then
    echo "check_vectorization: $failures SoA kernel loop(s) not vectorized" \
         "(full report follows)" >&2
    cat "$OUT" >&2
    exit 1
fi
echo "check_vectorization: SoA table and fold passes vectorized ($CXX)"
exit 0
