#!/bin/sh
# Exit-code and usage-path battery for csgtool. Usage errors must exit 2
# with a "usage:" banner; runtime errors (missing/corrupt file) exit 1; a
# crash or a surprise success fails the battery. Run under ctest as
#   sh cli_error_tests.sh /path/to/csgtool
set -u

CSGTOOL=${1:?usage: cli_error_tests.sh /path/to/csgtool}
WORK=$(mktemp -d) || exit 1
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# expect <exit-code> <grep-pattern-on-stderr|-> <args...>
expect() {
    want_code=$1
    want_pattern=$2
    shift 2
    "$CSGTOOL" "$@" >"$WORK/out" 2>"$WORK/err"
    got_code=$?
    if [ "$got_code" -ne "$want_code" ]; then
        echo "FAIL: csgtool $* -> exit $got_code, want $want_code" >&2
        FAILURES=$((FAILURES + 1))
        return
    fi
    if [ "$want_pattern" != "-" ] && ! grep -q "$want_pattern" "$WORK/err"; then
        echo "FAIL: csgtool $* -> stderr lacks '$want_pattern':" >&2
        sed 's/^/    /' "$WORK/err" >&2
        FAILURES=$((FAILURES + 1))
    fi
}

# A small valid grid for the subcommands that need an input file.
"$CSGTOOL" create --dims 3 --level 4 --function gaussian_bump \
    -o "$WORK/g.csg" >/dev/null || { echo "FAIL: setup create" >&2; exit 1; }

# --- no / unknown subcommand ------------------------------------------------
expect 2 "usage:"
expect 2 "usage:" frobnicate
expect 2 "usage:" info          # missing file operand

# --- create: d / n bounds, unknown function ---------------------------------
expect 2 "usage:" create --dims 0 --level 5 -o "$WORK/x.csg"
expect 2 "usage:" create --dims 99 --level 5 -o "$WORK/x.csg"
expect 2 "usage:" create --dims 3 --level 0 -o "$WORK/x.csg"
expect 2 "usage:" create --dims 3 --level 99 -o "$WORK/x.csg"
expect 2 "usage:" create --dims not-a-number --level 5 -o "$WORK/x.csg"
expect 2 "unknown function" create --dims 3 --level 4 --function nope -o "$WORK/x.csg"

# --- eval: arity and domain -------------------------------------------------
expect 2 "expected 3 coordinates" eval "$WORK/g.csg" 0.5
expect 2 "expected 3 coordinates" eval "$WORK/g.csg" 0.1 0.2 0.3 0.4
expect 2 "must be in" eval "$WORK/g.csg" 0.5 1.5 0.5
expect 2 "must be in" eval "$WORK/g.csg" 0.5 -0.5 0.5
# Real-valued tokens must be whole, finite numbers: NaN and non-numbers
# are refused, never evaluated (as NaN, or as 0).
expect 2 "must be in" eval "$WORK/g.csg" 0.5 0.5 nan
expect 2 "must be in" eval "$WORK/g.csg" 0.5 0.5 abc
expect 2 "must be in" eval "$WORK/g.csg" 0.5 0.5 0.5x
expect 2 "must be in" eval "$WORK/g.csg" 0.5 0.5 ""

# --- evalbatch: positive counts required ------------------------------------
expect 2 "usage:" evalbatch "$WORK/g.csg" --points 0
expect 2 "usage:" evalbatch "$WORK/g.csg" --points -1   # must not wrap to SIZE_MAX
expect 2 "usage:" evalbatch "$WORK/g.csg" --block 0
expect 2 "usage:" evalbatch "$WORK/g.csg" --block -1    # must not wrap to SIZE_MAX
expect 2 "usage:" evalbatch "$WORK/g.csg" --threads 0
expect 2 "usage:" evalbatch "$WORK/g.csg" --threads -3

# --- restrict: keep list and anchor validation ------------------------------
expect 2 "usage:" restrict "$WORK/g.csg" --keep 0,1,2 --anchor 0.5 -o "$WORK/s.csg"   # keeps all dims
expect 2 "usage:" restrict "$WORK/g.csg" --keep 0,7 --anchor 0.5 -o "$WORK/s.csg"     # out of range
expect 2 "usage:" restrict "$WORK/g.csg" --keep 1,1 --anchor 0.5 -o "$WORK/s.csg"     # duplicate
expect 2 "usage:" restrict "$WORK/g.csg" --keep 2,0 --anchor 0.5 -o "$WORK/s.csg"     # unsorted
expect 2 "usage:" restrict "$WORK/g.csg" --keep 0 --anchor 1.5 -o "$WORK/s.csg"       # anchor > 1
expect 2 "usage:" restrict "$WORK/g.csg" --keep 0 --anchor -0.5 -o "$WORK/s.csg"      # anchor < 0
expect 2 "usage:" restrict "$WORK/g.csg" --keep 0 --anchor nan -o "$WORK/s.csg"
expect 2 "usage:" restrict "$WORK/g.csg" --keep 0 --anchor abc -o "$WORK/s.csg"

# --- compress: epsilon must be a finite number >= 0 -------------------------
expect 2 "usage:" compress "$WORK/g.csg" --epsilon nan -o "$WORK/t.csgt"
expect 2 "usage:" compress "$WORK/g.csg" --epsilon -1 -o "$WORK/t.csgt"
expect 2 "usage:" compress "$WORK/g.csg" --epsilon 1e-3x -o "$WORK/t.csgt"

# --- slice: dimension validation --------------------------------------------
expect 2 "usage:" slice "$WORK/g.csg" --dimx 0 --dimy 0
expect 2 "usage:" slice "$WORK/g.csg" --dimx 0 --dimy 9
expect 2 "usage:" slice "$WORK/g.csg" --dimx 9 --dimy 1
expect 2 "usage:" slice "$WORK/g.csg" --anchor 1.5
expect 2 "usage:" slice "$WORK/g.csg" --anchor nan
expect 2 "usage:" slice "$WORK/g.csg" --anchor abc

# --- slice: positive raster size required -----------------------------------
expect 2 "usage:" slice "$WORK/g.csg" --width 0
expect 2 "usage:" slice "$WORK/g.csg" --width -1
expect 2 "usage:" slice "$WORK/g.csg" --height 0
expect 2 "usage:" slice "$WORK/g.csg" --height -1

# --- selfcheck: bound validation --------------------------------------------
expect 2 "usage:" selfcheck --dmax 0
expect 2 "usage:" selfcheck --dmax 99
expect 2 "usage:" selfcheck --nmax 0
expect 2 "usage:" selfcheck --budget 0
expect 2 "usage:" selfcheck --budget nan
expect 2 "usage:" selfcheck --budget inf
expect 2 "usage:" selfcheck --trials 0
expect 2 "usage:" selfcheck --trials -1   # must not wrap to 2^64 - 1

# --- selfcheck: the budget also bounds the sampled trials -------------------
# 10^15 trials on one shape would run for days; the budget must stop them
# (exit 3, INCOMPLETE) within seconds.
timeout 20 "$CSGTOOL" selfcheck --dmax 1 --nmax 2 --budget 1 \
    --trials 1000000000000000 >"$WORK/out" 2>"$WORK/err"
code=$?
if [ "$code" -ne 3 ] || ! grep -q "INCOMPLETE" "$WORK/out"; then
    echo "FAIL: selfcheck --budget 1 --trials 10^15 -> exit $code, want 3" \
         "with INCOMPLETE" >&2
    FAILURES=$((FAILURES + 1))
fi

# --- serve-bench: option validation -----------------------------------------
expect 2 "usage:" serve-bench --grids 0
expect 2 "usage:" serve-bench --requests 0
expect 2 "usage:" serve-bench --workers 0
expect 2 "usage:" serve-bench --policy sometimes
expect 2 "usage:" serve-bench --deadline-ms -5
expect 2 "usage:" serve-bench --shards -1

# --- net-serve / net-bench: option validation --------------------------------
expect 2 "usage:" net-serve --port 70000
expect 2 "usage:" net-serve --port -1
expect 2 "usage:" net-serve --grids 0
expect 2 "usage:" net-serve --workers 0
expect 2 "usage:" net-serve --max-conns 0
expect 2 "usage:" net-serve --max-points 0
expect 2 "usage:" net-serve --idle-exit-ms -1
expect 2 "usage:" net-serve --shards -1
expect 2 "usage:" net-serve --in-flight 0
expect 2 "usage:" net-bench --transport carrier-pigeon
expect 2 "usage:" net-bench --requests 0
expect 2 "usage:" net-bench --clients 0
expect 2 "usage:" net-bench --points 0
expect 2 "usage:" net-bench --deadline-ms -5
expect 2 "usage:" net-bench --port 70000
expect 2 "usage:" net-bench --shards -1
expect 2 "usage:" net-bench --in-flight 0

# --- serving commands: unknown flags and dangling values are usage errors ---
# (--window-us went with the batching window; a stale script must
# fail loudly, not run with the flag silently ignored.)
expect 2 "usage:" serve-bench --window-us 200
expect 2 "usage:" serve-bench --requests 10 --bogus 1
expect 2 "usage:" serve-bench --requests
expect 2 "usage:" net-serve --window-us 200
expect 2 "usage:" net-serve --idle-exit-ms 100 stray
expect 2 "usage:" net-bench --window-us 200
expect 2 "usage:" net-bench --policy reject   # a serve-bench-only flag

# --- net-serve: binding an already-bound port is a runtime error (exit 1) ----
# First server picks an ephemeral port (printed on its banner); the second
# bind on the same port must fail cleanly while the first is still up.
"$CSGTOOL" net-serve --port 0 --dims 2 --level 3 --grids 1 \
    --idle-exit-ms 2000 >"$WORK/srv.out" 2>&1 &
SRV_PID=$!
PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$WORK/srv.out")
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "FAIL: net-serve never printed its port" >&2
    FAILURES=$((FAILURES + 1))
else
    expect 1 "csgtool:" net-serve --port "$PORT" --dims 2 --level 3 \
        --grids 1 --idle-exit-ms 100
fi
kill "$SRV_PID" 2>/dev/null
wait "$SRV_PID" 2>/dev/null

# --- runtime errors: missing / corrupt input exit 1, not 2 ------------------
expect 1 "csgtool:" info /nonexistent/no.csg
expect 1 "csgtool:" eval /nonexistent/no.csg 0.5 0.5 0.5
printf 'CSGX' > "$WORK/bad.csg"
expect 1 "csgtool:" info "$WORK/bad.csg"
# One NaN coefficient (little-endian quiet NaN over the second payload
# double, past the 28-byte header) is refused at load.
cp "$WORK/g.csg" "$WORK/nan.csg"
printf '\000\000\000\000\000\000\370\177' |
    dd of="$WORK/nan.csg" bs=1 seek=36 conv=notrunc 2>/dev/null
expect 1 "non-finite" info "$WORK/nan.csg"
# A corrupt shape in a 36-byte CSG1 file (header + one double; d=16 over
# bytes 12..15, n over 16..19) is a load error, not an abort (exit 134)
# or an allocation of petabytes.
"$CSGTOOL" create --dims 1 --level 1 -o "$WORK/one.csg" >/dev/null ||
    { echo "FAIL: setup create --dims 1 --level 1" >&2; exit 1; }
for n in '\050' '\024'; do   # n = 40 and n = 20, as octal escapes
    cp "$WORK/one.csg" "$WORK/shape.csg"
    printf "\020\000\000\000${n}\000\000\000" |
        dd of="$WORK/shape.csg" bs=1 seek=12 conv=notrunc 2>/dev/null
    expect 1 "csg::io::load:" info "$WORK/shape.csg"
done
# A consistent header over a short payload: d=16, n=20 and its true count
# (1,345,544,475,639,809 points, u64 at bytes 20..27) fail as a truncated
# payload instead of allocating the coefficient array first (bad_alloc).
cp "$WORK/one.csg" "$WORK/short.csg"
printf '\020\000\000\000\024\000\000\000\001\000\200\374\303\307\004\000' |
    dd of="$WORK/short.csg" bs=1 seek=12 conv=notrunc 2>/dev/null
expect 1 "csg::io::load: truncated coefficient payload" info "$WORK/short.csg"

if [ "$FAILURES" -ne 0 ]; then
    echo "cli_error_tests: $FAILURES failure(s)" >&2
    exit 1
fi
echo "cli_error_tests: all checks passed"
