#!/usr/bin/env python3
"""csg-lint: project-invariant static analysis for the sparse grid codebase.

The paper's central artifact is the O(d) gp2idx bijection, whose correctness
hinges on bit-exact index arithmetic: a left-shift whose accumulator silently
narrows to 32 bits, or an implicit level_t <- uint64 conversion, corrupts
flat indices only at deep levels where no fast test treads. The runtime side
is defended by differential oracles and sanitizer lanes; this checker makes
the same bug classes unrepresentable at lint time.

Rules (catalog and suppression policy in docs/STATIC_ANALYSIS.md):

  shift-width            integer-literal left operands of << must carry an
                         explicit 64-bit width (T{1} brace form or l/L
                         suffix) unless the shift count is a small constant
  implicit-narrowing     in src/core, src/parallel, src/serve, and src/net,
                         level_t/dim_t declarations must not be initialised
                         from a wider index expression without an explicit
                         static_cast (shard_hash() results included, so the
                         grid-name -> shard mapping stays 64-bit-safe)
  raw-alloc              no raw new/delete/malloc/free outside src/memsim
                         (the memory-simulation layer owns allocation
                         instrumentation); placement new is exempt
  omp-loop-counter       every `#pragma omp ... for` loop variable must be a
                         64-bit counter so the parallel trip count can never
                         overflow or narrow against 64-bit grid bounds
  header-self-contained  every public header under src/*/include — plus
                         bench/*.hpp and tools/**/*.hpp — compiles
                         standalone (g++ -fsyntax-only)
  pragma-once            every header in scope starts with #pragma once
  bench-seed             benchmarks seed RNG engines through
                         csg::testing::mix_seed, never a bare integer
                         literal (raw seeds across binaries collide and
                         correlate the sampled workloads)
  mutex-guard-annotations  lock-based code in src/ uses the annotated
                         primitives from csg/core/thread_annotations.hpp:
                         no raw std::mutex/std::lock_guard/... (invisible
                         to Clang's -Wthread-safety analysis), every
                         csg::Mutex member tied to state or methods by a
                         CSG_* annotation, and no "must hold the mutex"
                         comments where CSG_REQUIRES belongs
  simd-scalar-parity     every `#pragma omp simd` loop in src/core carries
                         an adjacent `// scalar fallback: <name>` comment
                         naming the scalar reference implementation kept in
                         the same TU, so a vectorized kernel can never lose
                         its differential-testing partner silently
  exact-pow2             no ldexp in src/core or src/combination: scale by
                         x * exact_pow2(e), bit-identical to ldexp (both
                         are correctly rounded) without the library call
  one-counter-list       no std::atomic<std::uint64_t> (or LiveCounter)
                         declarations in src/serve or src/net: a counter
                         belongs in a counter block, declared once for the
                         live atomics, the snapshot and the stats frame
  one-io-codec           in src/io, no std::ifstream/std::ofstream
                         construction and no use of the header's endian tag
                         outside the allow()-tagged path helpers and header
                         pair: every on-disk format goes through one codec
  one-eval-walk          in src/core, src/regression, src/combination,
                         src/serve, src/net, src/io and src/parallel, no
                         call to support_index_1d: Alg. 7's per-point cell
                         locate belongs to the one SoA kernel (evaluate.cpp),
                         whose table pass replaces it; the single-point
                         gradient walk is the one tagged exception

Findings are suppressed per site, never blanket:
  code();  // csg-lint: allow(rule-name) -- reason
  // csg-lint: allow-next(rule-name) -- reason
The tree must scan clean (exit 0); --selftest additionally proves every rule
still flags its known-bad fixture under tests/lint_fixtures/.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys

SCAN_DIRS = ("src", "tools", "bench", "examples")
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")

ALLOW_RE = re.compile(r"csg-lint:\s*allow\(([\w\-, ]+)\)")
ALLOW_NEXT_RE = re.compile(r"csg-lint:\s*allow-next\(([\w\-, ]+)\)")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based; 0 means whole-file
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def mask_comments_and_strings(text):
    """Replace comment/string/char contents with spaces, preserving offsets.

    Keeps the scanner honest: `// delete this` or "1 << n" in a log message
    never match a rule. Newlines survive so line numbers stay exact.
    """
    out = list(text)
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr' | 'raw'
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "R" and nxt == '"' and (i == 0 or not text[i - 1].isalnum()):
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    i += m.end()
                    continue
            if c == '"':
                state = "str"
                i += 1
                continue
            if c == "'" and not (i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
                # character literal; the guard keeps digit separators (1'000)
                # out of this state
                state = "chr"
                i += 1
                continue
            i += 1
            continue
        if state == "line":
            if c == "\n":
                state = None
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == "block":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = None
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == "raw":
            if text.startswith(raw_delim, i):
                for j in range(i, i + len(raw_delim)):
                    out[j] = " "
                i += len(raw_delim)
                state = None
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == "str":
            if c == "\\":
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = None
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == "chr":
            if c == "\\":
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                state = None
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
    return "".join(out)


class SourceFile:
    def __init__(self, root, relpath):
        self.root = root
        self.relpath = relpath
        self.abspath = os.path.join(root, relpath)
        with open(self.abspath, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.raw_lines = self.text.splitlines()
        self.masked = mask_comments_and_strings(self.text)
        self.masked_lines = self.masked.splitlines()

    def suppressed(self, rule, line):
        """True if the (1-based) line carries an inline suppression for rule."""
        for lineno, regex in ((line, ALLOW_RE), (line - 1, ALLOW_NEXT_RE)):
            if 1 <= lineno <= len(self.raw_lines):
                m = regex.search(self.raw_lines[lineno - 1])
                if m and rule in [r.strip() for r in m.group(1).split(",")]:
                    return True
        return False

    def line_of_offset(self, offset):
        return self.text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

class Rule:
    name = ""
    description = ""

    def applies(self, relpath):
        return True

    def run(self, src):
        raise NotImplementedError


class ShiftWidthRule(Rule):
    name = "shift-width"
    description = (
        "integer-literal << must have an explicit 64-bit-wide left operand "
        "(T{1} or an l/L suffix) unless shifting by a constant < 32"
    )

    LIT_SHIFT = re.compile(
        r"(?<![\w.])(\d[\w']*)\s*<<(?!=|<)\s*([\w:\[\]().]+)?", re.S
    )

    def run(self, src):
        findings = []
        for m in self.LIT_SHIFT.finditer(src.masked):
            lit, rhs = m.group(1), m.group(2) or ""
            # 'l' suffix => at least long, 64-bit on every platform we build
            if re.search(r"[lL]", re.sub(r"^0[xX][0-9a-fA-F']+", "", lit)):
                continue
            # T{1} brace form: the author chose a width explicitly
            before = src.masked[: m.start()].rstrip()
            if before.endswith("{"):
                continue
            # stream chains: `os << 1 << x` has << right before the literal
            if before.endswith("<<"):
                continue
            # constant shift counts below 32 cannot leave int range
            if re.fullmatch(r"\d[\d']*", rhs):
                if int(rhs.replace("'", "")) < 32:
                    continue
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                self.name, src.relpath, line,
                f"`{lit} << {rhs or '...'}`: literal left operand promotes "
                "to int; use an explicit 64-bit form such as "
                "flat_index_t{1} << ... (see types.hpp width anchors)",
            ))
        return findings


class ImplicitNarrowingRule(Rule):
    name = "implicit-narrowing"
    description = (
        "level_t/dim_t declarations in src/core, src/parallel, src/serve, "
        "and src/net must not be initialised from wider index expressions "
        "without a static_cast"
    )

    DECL = re.compile(
        r"\b(level_t|dim_t)\s+(\w+)\s*=\s*([^;{}]*);", re.S
    )
    # Unambiguously-64-bit sources only. Bare `.size()` is NOT a marker:
    # DimVector::size() already returns dim_t, so matching it would flag
    # sound code (std container sizes reach level_t/dim_t via the explicit
    # casts the compiler's -Wconversion lane enforces anyway).
    WIDE = re.compile(
        r"l1_norm\s*\(|num_points\s*\(|group_offset\s*\(|memory_bytes\s*\(|"
        r"subspace_index\s*\(|shard_hash\s*\(|flat_index_t|index1d_t|uint64|"
        # SoA batch-kernel sizes (PointBlock/EvaluationPlan) are std::size_t.
        r"padded_size\s*\(|subspace_count\s*\("
    )

    def applies(self, relpath):
        p = relpath.replace(os.sep, "/")
        return (p.startswith("src/core/") or p.startswith("src/parallel/")
                or p.startswith("src/serve/") or p.startswith("src/net/"))

    def run(self, src):
        findings = []
        for m in self.DECL.finditer(src.masked):
            typ, var, rhs = m.groups()
            if not self.WIDE.search(rhs):
                continue
            if "static_cast<" in rhs:
                continue
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                self.name, src.relpath, line,
                f"`{typ} {var} = ...`: initialiser carries a 64-bit index "
                "expression; narrowing must be spelled out with "
                f"static_cast<{typ}>(...)",
            ))
        return findings


class RawAllocRule(Rule):
    name = "raw-alloc"
    description = (
        "no raw new/delete/malloc/free outside src/memsim; ownership flows "
        "through containers (placement new is exempt)"
    )

    C_ALLOC = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
    OPERATOR = re.compile(r"\boperator\s+(new|delete)\b")
    NEW = re.compile(r"\bnew\b")
    DELETE = re.compile(r"\bdelete\b")

    def applies(self, relpath):
        return not relpath.replace(os.sep, "/").startswith("src/memsim/")

    def run(self, src):
        findings = []
        operator_spans = []
        preproc = set()
        offset = 0
        for i, line in enumerate(src.masked_lines):
            if line.lstrip().startswith("#"):
                preproc.add(i + 1)
            offset += len(line) + 1

        def emit(m, what):
            line = src.line_of_offset(m.start())
            if line in preproc:
                return
            findings.append(Finding(
                self.name, src.relpath, line,
                f"raw {what}: allocation belongs to containers or to "
                "src/memsim's instrumented allocators",
            ))

        for m in self.OPERATOR.finditer(src.masked):
            operator_spans.append((m.start(), m.end()))
            emit(m, f"operator {m.group(1)} call/definition")

        def inside_operator(pos):
            return any(s <= pos < e for s, e in operator_spans)

        for m in self.C_ALLOC.finditer(src.masked):
            emit(m, f"{m.group(1)}()")
        for m in self.NEW.finditer(src.masked):
            if inside_operator(m.start()):
                continue
            after = src.masked[m.end():].lstrip()
            if after.startswith("("):  # placement new
                continue
            emit(m, "new expression")
        for m in self.DELETE.finditer(src.masked):
            if inside_operator(m.start()):
                continue
            before = src.masked[: m.start()].rstrip()
            if before.endswith("="):  # `= delete;` declarations
                continue
            emit(m, "delete expression")
        return findings


class OmpLoopCounterRule(Rule):
    name = "omp-loop-counter"
    description = (
        "loop variables of `#pragma omp ... for` must be 64-bit counters "
        "(std::int64_t, std::size_t, flat_index_t, ...)"
    )

    ALLOWED = {
        "std::int64_t", "int64_t", "std::uint64_t", "uint64_t",
        "std::size_t", "size_t", "std::ptrdiff_t", "ptrdiff_t",
        "flat_index_t", "csg::flat_index_t",
    }
    FOR_DECL = re.compile(r"for\s*\(\s*(?:const\s+)?([\w:]+)\s+(\w+)\s*=")

    def run(self, src):
        findings = []
        lines = src.masked_lines
        i = 0
        while i < len(lines):
            line = lines[i]
            if re.search(r"#\s*pragma\s+omp\b", line) and re.search(r"\bfor\b", line):
                # find the `for (` statement within the next few lines
                # (pragma continuations included via the backslash joins)
                j = i
                while j < len(lines) and lines[j].rstrip().endswith("\\"):
                    j += 1
                for k in range(j + 1, min(j + 6, len(lines))):
                    m = self.FOR_DECL.search(lines[k])
                    if not m:
                        continue
                    typ, var = m.groups()
                    if typ not in self.ALLOWED:
                        findings.append(Finding(
                            self.name, src.relpath, k + 1,
                            f"OpenMP loop variable `{typ} {var}`: use a "
                            "64-bit counter so the trip count can neither "
                            "overflow nor narrow against 64-bit grid bounds",
                        ))
                    break
            i += 1
        return findings


class PragmaOnceRule(Rule):
    name = "pragma-once"
    description = "every header opens with #pragma once (doc comments aside)"

    def applies(self, relpath):
        return relpath.endswith(".hpp")

    def run(self, src):
        # Masked lines blank out comments, so the first line with content is
        # the first line of actual code — a leading doc block of any length
        # is fine, but the guard must come before includes or declarations.
        for line in src.masked_lines:
            if not line.strip():
                continue
            if re.match(r"\s*#\s*pragma\s+once\b", line):
                return []
            break
        return [Finding(self.name, src.relpath, 1,
                        "header is missing #pragma once before its first "
                        "line of code")]


class BenchSeedRule(Rule):
    name = "bench-seed"
    description = (
        "benchmarks construct RNG engines via csg::testing::mix_seed, "
        "not bare integer-literal seeds"
    )

    # An engine declaration whose constructor argument is a bare integer
    # literal: `std::mt19937_64 rng(2024)` or `mt19937 g{42}`. Seeds routed
    # through mix_seed(...) (or any other expression) do not match.
    ENGINE = re.compile(
        r"\b(?:std\s*::\s*)?"
        r"(mt19937(?:_64)?|default_random_engine|minstd_rand0?)"
        r"\s+\w+\s*[({]\s*(\d[\w']*)\s*[)}]"
    )

    def applies(self, relpath):
        return relpath.replace(os.sep, "/").startswith("bench/")

    def run(self, src):
        findings = []
        for m in self.ENGINE.finditer(src.masked):
            engine, seed = m.groups()
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                self.name, src.relpath, line,
                f"`{engine} ...({seed})`: bare literal seed; benchmarks "
                "must derive seeds with csg::testing::mix_seed so per-"
                "binary streams stay decorrelated and replayable",
            ))
        return findings


class MutexGuardAnnotationsRule(Rule):
    name = "mutex-guard-annotations"
    description = (
        "lock-based code in src/ goes through the annotated primitives of "
        "csg/core/thread_annotations.hpp: no raw std mutexes or guards, "
        "every csg::Mutex/SharedMutex member referenced by a CSG_* "
        "capability annotation, no 'must hold' comments standing in for "
        "CSG_REQUIRES"
    )

    # Raw standard-library synchronization vocabulary. Any of these in src/
    # is invisible to the Clang thread-safety analysis, which is exactly why
    # the annotated wrappers exist.
    STD_PRIMITIVE = re.compile(
        r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
        r"recursive_timed_mutex|condition_variable|condition_variable_any|"
        r"lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    )
    # A csg::Mutex / csg::SharedMutex data member declaration. The `;` / `{`
    # right after the name keeps references (`Mutex& m`) and constructor
    # parameters out.
    MUTEX_MEMBER = re.compile(
        r"\b(?:csg\s*::\s*)?(Mutex|SharedMutex)\s+(\w+)\s*[;{]"
    )
    # Any capability annotation that can tie state or methods to the mutex.
    ANNOTATION_USES = (
        "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED",
        "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED",
        "RELEASE_GENERIC", "TRY_ACQUIRE", "EXCLUDES", "ASSERT_CAPABILITY",
        "RETURN_CAPABILITY",
    )
    # A lock-discipline comment doing an annotation's job. Qualified with
    # mutex/lock so prose like "`bytes` must hold at least ..." (capacity)
    # or "invariants must hold for ..." (logic) never matches.
    MUST_HOLD = re.compile(r"must\s+hold\s+[^.\n]*?(mutex|lock)", re.I)

    def applies(self, relpath):
        p = relpath.replace(os.sep, "/")
        if p.endswith("core/thread_annotations.hpp"):
            return False  # the wrappers themselves own the raw primitives
        return p.startswith("src/")

    def run(self, src):
        findings = []
        for m in self.STD_PRIMITIVE.finditer(src.masked):
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                self.name, src.relpath, line,
                f"`std::{m.group(1)}`: raw standard-library synchronization "
                "is invisible to the thread-safety analysis; use the "
                "annotated csg:: primitives (thread_annotations.hpp)",
            ))
        annotated = set()
        for m in re.finditer(
                r"CSG_(?:" + "|".join(self.ANNOTATION_USES) + r")\s*\(([^)]*)\)",
                src.masked):
            annotated.update(re.findall(r"\w+", m.group(1)))
        for m in self.MUTEX_MEMBER.finditer(src.masked):
            typ, name = m.groups()
            if name in annotated:
                continue
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                self.name, src.relpath, line,
                f"`{typ} {name}`: mutex member is never referenced by a "
                "CSG_* capability annotation — annotate the state it guards "
                "(CSG_GUARDED_BY) or the methods that need it "
                "(CSG_REQUIRES)",
            ))
        for k, line_text in enumerate(src.raw_lines):
            if "//" not in line_text and "/*" not in line_text:
                continue
            if self.MUST_HOLD.search(line_text):
                findings.append(Finding(
                    self.name, src.relpath, k + 1,
                    "lock-discipline comment; state the contract as "
                    "CSG_REQUIRES(...) so the compiler enforces it instead",
                ))
        return findings


class SimdScalarParityRule(Rule):
    name = "simd-scalar-parity"
    description = (
        "`#pragma omp simd` in src/core needs an adjacent `// scalar "
        "fallback: <name>` comment whose named reference lives in the "
        "same TU or in the src/testing oracle library"
    )

    # The pragma is code (it survives masking); the tag is a comment, so it
    # is read from the raw lines. Up to three lines of separation allows a
    # short explanatory comment between tag and pragma.
    PRAGMA = re.compile(r"#\s*pragma\s+omp\s+simd\b")
    FALLBACK = re.compile(r"//\s*scalar fallback:\s*(\w+)")

    ORACLE_DIR = os.path.join("src", "testing")

    def __init__(self):
        self._oracle_code = {}  # root -> masked code of src/testing

    def applies(self, relpath):
        return relpath.replace(os.sep, "/").startswith("src/core/")

    def oracle_code(self, root):
        """Masked code of every C++ file in the oracle library, where the
        scalar references of the production kernels live."""
        if root not in self._oracle_code:
            parts = []
            base = os.path.join(root, self.ORACLE_DIR)
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith((".hpp", ".cpp")):
                        rel = os.path.relpath(os.path.join(dirpath, fn), root)
                        parts.append(SourceFile(root, rel).masked)
            self._oracle_code[root] = "\n".join(parts)
        return self._oracle_code[root]

    def run(self, src):
        findings = []
        for i, line in enumerate(src.masked_lines):
            if not self.PRAGMA.search(line):
                continue
            name = None
            for k in range(max(0, i - 3), i + 1):
                m = self.FALLBACK.search(src.raw_lines[k])
                if m:
                    name = m.group(1)
            if name is None:
                findings.append(Finding(
                    self.name, src.relpath, i + 1,
                    "`#pragma omp simd` without a `// scalar fallback: "
                    "<name>` comment: every vectorized loop must name the "
                    "scalar reference the differential tests pin it against",
                ))
            else:
                word = re.compile(r"\b" + re.escape(name) + r"\b")
                if word.search(src.masked) or word.search(
                        self.oracle_code(src.root)):
                    continue
                findings.append(Finding(
                    self.name, src.relpath, i + 1,
                    f"scalar fallback `{name}` is found neither in this "
                    "translation unit nor in src/testing — the vectorized "
                    "loop has lost its bit-identity partner",
                ))
        return findings


class ExactPow2Rule(Rule):
    name = "exact-pow2"
    description = (
        "no ldexp in src/core or src/combination: multiply by "
        "csg::exact_pow2(e), which is bit-identical and skips the library "
        "call"
    )

    # std::ldexp, ::ldexp and an unqualified ldexp all end in this call.
    LDEXP = re.compile(r"\bldexp\s*\(")

    def applies(self, relpath):
        p = relpath.replace(os.sep, "/")
        return p.startswith("src/core/") or p.startswith("src/combination/")

    def run(self, src):
        return [
            Finding(self.name, src.relpath, src.line_of_offset(m.start()),
                    "ldexp call: scale by an exact power of two with "
                    "x * exact_pow2(e) (grid_point.hpp); both are correctly "
                    "rounded, so results stay bit-identical")
            for m in self.LDEXP.finditer(src.masked)
        ]


class OneCounterListRule(Rule):
    name = "one-counter-list"
    description = (
        "no std::atomic<std::uint64_t> declarations in src/serve or src/net: "
        "counters live in a counter block (csg/serve/counters.hpp)"
    )

    # A declaration whose type is the 64-bit atomic counter, spelled out or
    # through the LiveCounter alias: the declared name is followed by an
    # initializer or the end of the declaration. References, pointers and
    # template arguments (`Block<LiveCounter>`) do not match.
    COUNTER_DECL = re.compile(
        r"(?:\bstd\s*::\s*atomic\s*<\s*(?:std\s*::\s*)?uint64_t\s*>"
        r"|\bstd\s*::\s*atomic_uint64_t\b|\bLiveCounter\b)"
        r"\s+(\w+)\s*[;{=]"
    )

    def applies(self, relpath):
        p = relpath.replace(os.sep, "/")
        return p.startswith("src/serve/") or p.startswith("src/net/")

    def run(self, src):
        return [
            Finding(self.name, src.relpath, src.line_of_offset(m.start()),
                    f"`{m.group(1)}` is a bare atomic counter: declare it in "
                    "a counter block (ServiceCounters, ShardCounters, "
                    "NetCounters) so its snapshot and wire field derive from "
                    "the one field list")
            for m in self.COUNTER_DECL.finditer(src.masked)
        ]


class OneIoCodecRule(Rule):
    name = "one-io-codec"
    description = (
        "no std::ifstream/std::ofstream construction and no endian-tag use "
        "in src/io outside the tagged path helpers and header reader/writer"
    )

    # A file stream constructed by name (`std::ifstream in(path)`,
    # `std::ofstream out;`) or as a temporary (`std::ifstream(path)`).
    # References and template arguments (`std::ifstream&`) do not match.
    STREAM = re.compile(
        r"\bstd\s*::\s*(?:basic_)?[io]?fstream\b(?:\s*<[^>]*>)?"
        r"\s*(?:\w+\s*)?[({;]")
    # The prelude's byte-order sentinel, by name or by value. Its one
    # definition (`kEndianTag = 0x01020304u`) is not a use.
    ENDIAN = re.compile(r"\bkEndianTag\b|\b0[xX]0*1020304[uUlL]*\b")
    ENDIAN_DEF = re.compile(r"\bkEndianTag\s*=(?!=)")

    def applies(self, relpath):
        return relpath.replace(os.sep, "/").startswith("src/io/")

    def run(self, src):
        findings = []
        for m in self.STREAM.finditer(src.masked):
            findings.append(Finding(
                self.name, src.relpath, src.line_of_offset(m.start()),
                "file stream opened outside the codec's path helpers: "
                "route the format through save_path/load_path so every "
                "format shares one open, one error text and one header"))
        for m in self.ENDIAN.finditer(src.masked):
            line = src.line_of_offset(m.start())
            if self.ENDIAN_DEF.search(src.masked_lines[line - 1]):
                continue
            findings.append(Finding(
                self.name, src.relpath, line,
                "endian tag used outside write_header/read_header: a "
                "hand-copied header prelude is a fifth loader in the making"))
        return findings


class OneEvalWalkRule(Rule):
    name = "one-eval-walk"
    description = (
        "no support_index_1d call in the production modules: B*alpha and "
        "B^T r run the SoA kernel of src/core/src/evaluate.cpp"
    )

    # The comparators (baselines, gpusim, adaptive, memsim) and the oracle
    # library (src/testing) keep their own walks on purpose.
    SCOPE = ("src/core/", "src/regression/", "src/combination/",
             "src/serve/", "src/net/", "src/io/", "src/parallel/")
    CALL = re.compile(r"\bsupport_index_1d\s*\(")
    # Its one definition (grid_point.hpp) is not a call.
    DEFINITION = re.compile(r"\bindex1d_t\s+support_index_1d\s*\(")

    def applies(self, relpath):
        return relpath.replace(os.sep, "/").startswith(self.SCOPE)

    def run(self, src):
        findings = []
        for m in self.CALL.finditer(src.masked):
            line = src.line_of_offset(m.start())
            if self.DEFINITION.search(src.masked_lines[line - 1]):
                continue
            findings.append(Finding(
                self.name, src.relpath, line,
                "private Alg. 7 walk: evaluate through evaluate_blocked_into "
                "or scatter through scatter_blocked_into (evaluate.hpp) "
                "instead of locating cells point by point"))
        return findings


class HeaderSelfContainedRule(Rule):
    """Compiles every public header standalone; not a per-file text rule."""

    name = "header-self-contained"
    description = ("public headers under src/*/include plus bench/ and "
                   "tools/ headers compile standalone")

    def __init__(self, cxx):
        self.cxx = cxx

    def applies(self, relpath):
        return False  # driven separately over the public header set

    def include_dirs(self, root):
        dirs = []
        src = os.path.join(root, "src")
        if os.path.isdir(src):
            for mod in sorted(os.listdir(src)):
                inc = os.path.join(src, mod, "include")
                if os.path.isdir(inc):
                    dirs.append(inc)
        return dirs

    def check_header(self, root, abspath):
        cmd = [self.cxx, "-std=c++20", "-fsyntax-only", "-fopenmp",
               "-x", "c++"]
        for d in self.include_dirs(root):
            cmd += ["-I", d]
        cmd.append(abspath)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except (OSError, subprocess.TimeoutExpired) as e:
            return f"could not run {self.cxx}: {e}"
        if proc.returncode != 0:
            first = next((ln for ln in proc.stderr.splitlines()
                          if "error:" in ln), proc.stderr.strip()[:200])
            return first
        return None

    def run_over_headers(self, root, headers):
        findings = []
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(8, os.cpu_count() or 2)) as ex:
            futs = {ex.submit(self.check_header, root,
                              os.path.join(root, h)): h for h in headers}
            for fut in concurrent.futures.as_completed(futs):
                err = fut.result()
                if err is not None:
                    findings.append(Finding(
                        self.name, futs[fut], 1,
                        f"header does not compile standalone: {err}"))
        return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def text_rules(_args):
    return [ShiftWidthRule(), ImplicitNarrowingRule(), RawAllocRule(),
            OmpLoopCounterRule(), PragmaOnceRule(), BenchSeedRule(),
            MutexGuardAnnotationsRule(), SimdScalarParityRule(),
            ExactPow2Rule(), OneCounterListRule(), OneIoCodecRule(),
            OneEvalWalkRule()]


def collect_sources(root):
    out = []
    for base in SCAN_DIRS:
        basedir = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(basedir):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith((".hpp", ".cpp")):
                    out.append(os.path.relpath(os.path.join(dirpath, fn), root))
    return out


def collect_public_headers(root):
    out = []
    src = os.path.join(root, "src")
    if os.path.isdir(src):
        for mod in sorted(os.listdir(src)):
            inc = os.path.join(src, mod, "include")
            for dirpath, dirnames, filenames in os.walk(inc):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(".hpp"):
                        out.append(
                            os.path.relpath(os.path.join(dirpath, fn), root))
    # Headers living outside src/*/include but included by many translation
    # units (the bench front-end, any tools helpers) must be just as
    # self-contained: they are the first include of every bench binary.
    for base in ("bench", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".hpp"):
                    out.append(
                        os.path.relpath(os.path.join(dirpath, fn), root))
    return out


def scan_tree(root, args, rules_filter=None):
    rules = [r for r in text_rules(args)
             if rules_filter is None or r.name in rules_filter]
    findings = []
    for rel in collect_sources(root):
        try:
            src = SourceFile(root, rel)
        except OSError as e:
            findings.append(Finding("io-error", rel, 0, str(e)))
            continue
        for rule in rules:
            if not rule.applies(rel):
                continue
            for f in rule.run(src):
                if not src.suppressed(f.rule, f.line):
                    findings.append(f)
    header_rule = HeaderSelfContainedRule(args.cxx)
    if rules_filter is None or header_rule.name in rules_filter:
        findings += header_rule.run_over_headers(root, collect_public_headers(root))
    return findings


def run_rule_on_file(root, args, rule_name, relpath):
    """Selftest path: force one rule onto one fixture, ignoring scope."""
    if rule_name == "header-self-contained":
        rule = HeaderSelfContainedRule(args.cxx)
        return rule.run_over_headers(root, [relpath])
    src = SourceFile(root, relpath)
    for rule in text_rules(args):
        if rule.name == rule_name:
            return [f for f in rule.run(src)
                    if not src.suppressed(f.rule, f.line)]
    raise SystemExit(f"csg-lint: unknown rule {rule_name}")


FIXTURES = {
    "shift-width": "bad_shift_width.cpp",
    "implicit-narrowing": "bad_implicit_narrowing.cpp",
    "raw-alloc": "bad_raw_alloc.cpp",
    "omp-loop-counter": "bad_omp_loop_counter.cpp",
    "header-self-contained": "bad_header_self_contained.hpp",
    "pragma-once": "bad_pragma_once.hpp",
    "bench-seed": "bad_bench_seed.cpp",
    "mutex-guard-annotations": "bad_mutex_guard.cpp",
    "simd-scalar-parity": "bad_simd_scalar_parity.cpp",
    "exact-pow2": "bad_ldexp.cpp",
    "one-counter-list": "bad_counter_member.cpp",
    "one-io-codec": "bad_io_loader.cpp",
    "one-eval-walk": "bad_eval_walk.cpp",
}


def selftest(root, args):
    """Each rule must flag its known-bad fixture AND the tree must be clean.

    The lint analog of the sanitizer lane's injected-race check: a rule that
    stops firing on its fixture has rotted, no matter how green the tree is.
    """
    failures = 0
    for rule_name, fixture in sorted(FIXTURES.items()):
        rel = os.path.join(FIXTURE_DIR, fixture)
        if not os.path.exists(os.path.join(root, rel)):
            print(f"FAIL  {rule_name}: fixture {rel} missing")
            failures += 1
            continue
        found = run_rule_on_file(root, args, rule_name, rel)
        mine = [f for f in found if f.rule == rule_name]
        if mine:
            print(f"ok    {rule_name}: fixture flagged "
                  f"({len(mine)} finding{'s' if len(mine) != 1 else ''})")
        else:
            print(f"FAIL  {rule_name}: fixture {rel} produced no finding")
            failures += 1
    # The shard-hash width fixture is a second implicit-narrowing probe
    # (FIXTURES holds one per rule): shard_hash() is how grid names map to
    # EvalService shards, and a 32-bit truncation of its 64-bit result
    # would skew the distribution silently. Expect exactly the two BAD
    # declarations — the static_cast line must stay clean.
    shard_fx = os.path.join(FIXTURE_DIR, "bad_shard_hash_width.cpp")
    if not os.path.exists(os.path.join(root, shard_fx)):
        print(f"FAIL  shard-hash-width: fixture {shard_fx} missing")
        failures += 1
    else:
        found = run_rule_on_file(root, args, "implicit-narrowing", shard_fx)
        if len(found) == 2:
            print("ok    shard-hash-width: both truncating declarations "
                  "flagged, cast form clean")
        else:
            print(f"FAIL  shard-hash-width: expected 2 findings, "
                  f"got {len(found)}")
            for f in found:
                print(f"      {f}")
            failures += 1
    # Suppression syntax must actually suppress (otherwise every allow()
    # comment in the tree is dead weight and the clean scan lies).
    supp = os.path.join(FIXTURE_DIR, "suppressed_ok.cpp")
    if os.path.exists(os.path.join(root, supp)):
        leaked = run_rule_on_file(root, args, "raw-alloc", supp)
        if leaked:
            print(f"FAIL  suppression: {supp} still reports {leaked[0]}")
            failures += 1
        else:
            print("ok    suppression: inline allow() silences the finding")
    tree = scan_tree(root, args)
    if tree:
        print(f"FAIL  clean-tree scan: {len(tree)} finding(s):")
        for f in tree:
            print(f"      {f}")
        failures += 1
    else:
        print("ok    clean-tree scan: 0 findings")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="project-invariant static analysis (see docs/STATIC_ANALYSIS.md)")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (default: two levels above this script)")
    ap.add_argument("--cxx", default=os.environ.get("CXX", "g++"),
                    help="compiler for header self-containment checks")
    ap.add_argument("--rules", help="comma-separated rule subset to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--selftest", action="store_true",
                    help="verify each rule flags its fixture, then scan the tree")
    args = ap.parse_args()

    if args.list_rules:
        for r in text_rules(args) + [HeaderSelfContainedRule(args.cxx)]:
            print(f"{r.name:22s} {r.description}")
        return 0

    if args.selftest:
        return selftest(args.root, args)

    rules_filter = None
    if args.rules:
        rules_filter = {r.strip() for r in args.rules.split(",")}
    findings = scan_tree(args.root, args, rules_filter)
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    n = len(findings)
    print(f"csg-lint: {n} finding{'s' if n != 1 else ''}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
