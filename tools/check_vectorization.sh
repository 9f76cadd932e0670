#!/bin/sh
# Verify the SoA batch kernel's inner loops actually vectorize
# (DESIGN.md §14). The kernel's speedup rests on its table and fold passes
# (walk_block, shared by evaluate_block_soa and scatter_blocked_into)
# compiling to vector code; a refactor that
# reintroduces a branch (or drops -fno-trapping-math) silently falls back
# to scalar and only a careful bench read would notice. This check makes
# that regression loud: it compiles src/core/src/evaluate.cpp standalone
# with the same per-TU flags the build uses (src/core/CMakeLists.txt),
# captures the compiler's vectorization report (-fopt-info-vec-* on GCC,
# -Rpass{,-missed}=loop-vectorize on Clang), and fails unless both the
# table and fold passes are reported vectorized. The coefficient-gather
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

# The kernel loops are the `#pragma omp simd` sites in the TU, in order:
# basis-table pass (once per block), fold pass (per subspace and
# dimension), coefficient gather. The
# first two must vectorize; the compiler reports against the `for` line,
# so accept a report within two lines below each pragma.
PRAGMAS=$(grep -n "#pragma omp simd" "$TU" | cut -d: -f1)
if [ "$(printf '%s\n' "$PRAGMAS" | wc -l)" -lt 2 ]; then
    echo "check_vectorization: expected >= 2 '#pragma omp simd' sites in" \
         "$TU, found '$PRAGMAS'" >&2
    exit 1
fi

failures=0
index=0
for p in $PRAGMAS; do
    index=$((index + 1))
    if [ "$index" -gt 2 ]; then break; fi
    hit=""
    for q in "$p" $((p + 1)) $((p + 2)); do
        hit=$(grep -E "evaluate\.cpp:$q:[0-9]+: *(optimized: loop vectorized|remark: vectorized loop)" "$OUT" | head -1)
        [ -n "$hit" ] && break
    done
    if [ -n "$hit" ]; then
        echo "ok    simd loop at line $p: ${hit#*: }"
    else
        echo "FAIL  simd loop at line $p: no vectorization report" >&2
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
