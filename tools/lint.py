#!/usr/bin/env python3
"""Project lint: style rules clang-tidy cannot express for this codebase.

Rules (see DESIGN.md section 11):
  banned-call   rand()/srand()/atoi/atol/atoll/atof — use mt19937 seeds and
                the checked parsers in common/strings.h instead.
  float-eq      == / != against a floating-point literal. Exact-zero
                skip-work tests are allowed when annotated with a
                `float-eq-ok` comment on the same or the preceding line.
  hot-check     ISRL_CHECK* in designated hot files (innermost numeric
                loops) — use the debug-only ISRL_DCHECK* variants there.
  direct-ask    UserOracle::Ask called from algorithm code under src/core/
                or src/baselines/. Interaction is sans-IO (DESIGN.md
                section 13): algorithms emit questions through their
                InteractionSession; only the blocking driver, the
                scheduler, and the evaluation layer may touch an oracle.
  raw-serialize ad-hoc binary IO (fwrite/fread, reinterpret_cast to a char
                pointer) outside the sanctioned codec layers. Every
                persistent byte flows through core/snapshot (framed,
                versioned, checksummed) or nn/serialize (DESIGN.md
                section 14) so corruption surfaces as a Status, never UB.
  raw-thread    std::thread / std::mutex / std::condition_variable /
                std::lock_guard / std::unique_lock (and kin) outside
                src/common/parallel.*, src/common/mutex.*, and src/serve/.
                Everything else uses the annotated wrappers
                (common/mutex.h: Mutex, MutexLock, CondVar) or ParallelFor
                — raw primitives carry no thread-safety capability, so the
                clang -Wthread-safety lane cannot check code built on them
                (DESIGN.md section 16).
  wall-clock    std::chrono::{system,steady,high_resolution}_clock outside
                src/common/stopwatch.* and src/common/budget.*. A wall-
                clock read in session or algorithm code is a determinism
                hazard: it cannot be captured in a snapshot, so replayed
                or restored runs diverge from the original (DESIGN.md
                sections 10 and 14).
  raw-enumerate EnumerateVertices( outside src/geometry/ and src/audit/.
                Full vertex re-enumeration is the polyhedron's private
                fallback; callers go through Cut(), which maintains
                adjacency incrementally, certifies the update, and records
                audit evidence. A direct call elsewhere silently bypasses
                both the incremental path and its instrumentation
                (DESIGN.md section 17).
  model-ownership
                nn::Network / DqnAgent / main_network() / target_network()
                in serving-side code (src/serve/, the scheduler, the
                session interface). Serving code holds immutable
                nn::ModelSnapshot pins from the ModelRegistry; a raw
                network reference there can be mutated by a concurrent
                retrain, tearing in-flight sessions (DESIGN.md
                section 18). Training-side owners (src/nn/, src/rl/,
                core/ea.*, core/aa.*) and the trainer's publish hook are
                exempt.
  fma           fused multiply-add under src/: "fma", or an ISA that
                implies it ("avx512*", "arch=..."), inside a target /
                target_clones attribute, and std::fma / fma() /
                __builtin_fma calls. A fused multiply-add rounds once where
                Dot, GemmTransposedB and the top-1 kernel round twice, so
                it would break their bit-identity (DESIGN.md section 12).
  raw-target    a target / target_clones attribute (or `#pragma GCC
                target`) outside src/common/simd.h. Every cloned kernel
                goes through ISRL_SIMD_TARGET_CLONES, which carries the
                ThreadSanitizer ifunc gate (DESIGN.md section 16) and the
                FMA-free clone list; a hand-written attribute would bypass
                both.
  train-loop    a Remember( or EpsilonAt( call under src/ outside src/rl/
                and src/core/episode_engine.h. Training has one loop,
                TrainEpisodes, which drives the serving session (DESIGN.md
                section 13); a replay write or an exploration-schedule read
                anywhere else is a second training loop in the making, one
                the session's degradation paths and budgets never reach.

Usage: tools/lint.py [paths...]   (defaults to src/)
Exit status is the number of findings (0 == clean).
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Files whose element accessors / pivot loops are the innermost hot path.
# ISRL_CHECK aborts are fine everywhere else; here they must be ISRL_DCHECK.
HOT_FILES = {
    "src/common/vec.h",
    "src/common/matrix.h",
    "src/lp/simplex.cc",
}

BANNED_CALLS = {
    "rand": "use a seeded std::mt19937 (common/ and rl/ already do)",
    "srand": "use a seeded std::mt19937",
    "atoi": "use ParseUint64/ParseDouble from common/strings.h",
    "atol": "use ParseUint64 from common/strings.h",
    "atoll": "use ParseUint64 from common/strings.h",
    "atof": "use ParseDouble from common/strings.h",
}

BANNED_CALL_RE = re.compile(
    r"(?<![A-Za-z0-9_:.])(?:std::)?(" + "|".join(BANNED_CALLS) + r")\s*\("
)

# `x == 1.5`, `0.0 != y`, `a == 1e-9`, ... — comparison where either side is
# a floating-point literal. Conservative: requires a decimal point or
# exponent so integer comparisons (i == 0) never match.
FLOAT_LIT = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
FLOAT_EQ_RE = re.compile(
    r"(?:[!=]=\s*(?:" + FLOAT_LIT + r"))|(?:(?:" + FLOAT_LIT + r")\s*[!=]=)"
)

HOT_CHECK_RE = re.compile(r"\bISRL_CHECK(?:_[A-Z]+)?\s*\(")

# Sans-IO discipline: algorithm code never talks to an oracle directly. The
# only places allowed to call `.Ask(` / `->Ask(` under src/core/ and
# src/baselines/ are the IO drivers.
ASK_DRIVER_FILES = {
    "src/core/algorithm.h",   # the blocking Interact() driver
    "src/core/scheduler.h",   # DriveWithUsers
    "src/core/scheduler.cc",
    "src/core/session.cc",    # the evaluation layer
}

ASK_SCOPES = ("src/core/", "src/baselines/")

DIRECT_ASK_RE = re.compile(r"(?:\.|->)\s*Ask\s*\(")

# Durability discipline (DESIGN.md section 14): binary bytes are produced
# and consumed ONLY by the framed snapshot codec and the network
# serializer. fwrite/fread and reinterpret_cast-to-char elsewhere are how
# unversioned, unchecksummed, UB-prone formats creep in.
RAW_SERIALIZE_FILES = {
    "src/core/snapshot.h",
    "src/core/snapshot.cc",
    "src/nn/serialize.h",
    "src/nn/serialize.cc",
}

RAW_SERIALIZE_RE = re.compile(
    r"\b(?:std::)?f(?:write|read)\s*\("
    r"|reinterpret_cast\s*<\s*(?:const\s+)?(?:unsigned\s+)?char\s*\*"
)

# Concurrency discipline (DESIGN.md section 16): locking primitives carry
# thread-safety capability annotations, and the only files allowed to touch
# the raw std primitives are the wrapper layer itself, the thread pool, and
# the serving engine (whose worker std::thread has no annotated wrapper).
RAW_THREAD_ALLOWED_PREFIXES = (
    "src/common/parallel.",
    "src/common/mutex.",
    "src/serve/",
)

RAW_THREAD_RE = re.compile(
    r"\bstd::(?:jthread|thread|timed_mutex|recursive_mutex"
    r"|recursive_timed_mutex|shared_mutex|shared_timed_mutex|mutex"
    r"|condition_variable_any|condition_variable|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock)\b"
)

# Determinism discipline: wall-clock reads are unreplayable inputs. Only the
# stopwatch (measurement) and the budget/deadline layer may consult a clock;
# both are excluded from snapshots by design.
WALL_CLOCK_ALLOWED_PREFIXES = (
    "src/common/stopwatch.",
    "src/common/budget.",
)

WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"
)

# Incremental-geometry discipline (DESIGN.md section 17): vertex sets are
# maintained across cuts; full re-enumeration is Polyhedron's private
# fallback, reached only through Cut()'s certify-or-rebuild logic and the
# audit layer's reference recomputation.
RAW_ENUMERATE_ALLOWED_PREFIXES = (
    "src/geometry/",
    "src/audit/",
)

RAW_ENUMERATE_RE = re.compile(r"\bEnumerateVertices\s*\(")

# Model-ownership discipline (DESIGN.md section 18): serving-side code pins
# immutable ModelSnapshots from the registry; only training-side code (the
# algorithms that own a DqnAgent, src/nn/, src/rl/) touches mutable
# networks. The trainer's RetrainHooks::network is the one sanctioned
# serve-side reference — it hands the freshly trained network to Publish().
MODEL_OWNERSHIP_SCOPES = (
    "src/serve/",
    "src/core/scheduler.",
    "src/core/algorithm.h",
)

MODEL_OWNERSHIP_ALLOWED_FILES = {
    "src/serve/trainer.h",
    "src/serve/trainer.cc",
}

MODEL_OWNERSHIP_RE = re.compile(
    r"\bnn::Network\b|\bDqnAgent\b|\b(?:main|target)_network\s*\("
)

# Bit-identity discipline (DESIGN.md section 12): every multiply and add in
# the numeric kernels rounds separately, on every host and clone.
FMA_SCOPE = "src/"
FMA_TARGET_RE = re.compile(r"\btarget(?:_clones)?\s*\(([^)]*)\)")
FMA_ISA_RE = re.compile(r"fma|avx512|arch=")
FMA_CALL_RE = re.compile(
    r"(?<![A-Za-z0-9_.])(?:std::)?fma[fl]?\s*\(|\b__builtin_fma[fl]?\s*\("
)

# Dispatch discipline (DESIGN.md sections 12 and 16): ISRL_SIMD_TARGET_CLONES
# in common/simd.h is the one place a target attribute is spelled. Matched on
# string-stripped code: `target("...")` / `target_clones("...")`, with or
# without `gnu::` or the `__...__` spelling.
RAW_TARGET_ALLOWED_FILES = {"src/common/simd.h"}
RAW_TARGET_RE = re.compile(
    r"(?<![\w.>])(?:__)?target(?:_clones)?(?:__)?\s*\(\s*\"\""
    r"|\btarget_clones\b"
)

# One-loop discipline (DESIGN.md section 13): the replay buffer and the
# exploration schedule are fed only by the DQN itself and by the one
# training loop, TrainEpisodes, which plays episodes through the serving
# session.
TRAIN_LOOP_SCOPE = "src/"
TRAIN_LOOP_ALLOWED = ("src/rl/", "src/core/episode_engine.h")
TRAIN_LOOP_RE = re.compile(r"(?<![\w])(?:Remember|EpsilonAt)\s*\(")

SUPPRESS_TOKEN = "float-eq-ok"

LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_noise(line: str) -> str:
    """Removes string literals and // comments so rules don't fire on text."""
    line = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", line)


def lint_file(path: Path) -> list:
    try:
        rel = path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        rel = path.as_posix()
    findings = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        return [(rel, 0, "io", f"unreadable: {err}")]

    in_block_comment = False
    prev_raw = ""
    for lineno, raw in enumerate(lines, start=1):
        code = raw
        # Minimal /* */ handling: drop whole lines inside block comments.
        if in_block_comment:
            if "*/" in code:
                code = code.split("*/", 1)[1]
                in_block_comment = False
            else:
                prev_raw = raw
                continue
        if "/*" in code and "*/" not in code:
            code = code.split("/*", 1)[0]
            in_block_comment = True
        # The attribute check reads string literals, so it runs before they
        # are stripped.
        with_strings = LINE_COMMENT_RE.sub("", code)
        code = strip_noise(code)

        if rel.startswith(FMA_SCOPE):
            target = FMA_TARGET_RE.search(with_strings)
            if (target and FMA_ISA_RE.search(target.group(1))) or (
                FMA_CALL_RE.search(code)
            ):
                findings.append(
                    (
                        rel,
                        lineno,
                        "fma",
                        "fused multiply-add (or an ISA implying it); every "
                        "multiply and add must round separately to keep "
                        "the kernels bit-identical (DESIGN.md section 12)",
                    )
                )

        m = BANNED_CALL_RE.search(code)
        if m:
            name = m.group(1)
            findings.append(
                (rel, lineno, "banned-call", f"{name}(): {BANNED_CALLS[name]}")
            )

        if FLOAT_EQ_RE.search(code):
            suppressed = SUPPRESS_TOKEN in raw or SUPPRESS_TOKEN in prev_raw
            if not suppressed:
                findings.append(
                    (
                        rel,
                        lineno,
                        "float-eq",
                        "== / != on a float literal; compare against a "
                        "tolerance, or annotate an exact-zero skip-work "
                        f"test with `// {SUPPRESS_TOKEN}: <reason>`",
                    )
                )

        if (
            rel.startswith(ASK_SCOPES)
            and rel not in ASK_DRIVER_FILES
            and DIRECT_ASK_RE.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "direct-ask",
                    "UserOracle::Ask outside an IO driver; emit the "
                    "question through the InteractionSession step API "
                    "(DESIGN.md section 13)",
                )
            )

        if rel not in RAW_SERIALIZE_FILES and RAW_SERIALIZE_RE.search(code):
            findings.append(
                (
                    rel,
                    lineno,
                    "raw-serialize",
                    "ad-hoc binary IO; go through the framed snapshot "
                    "codec (core/snapshot) or nn/serialize "
                    "(DESIGN.md section 14)",
                )
            )

        if (
            not rel.startswith(RAW_THREAD_ALLOWED_PREFIXES)
            and RAW_THREAD_RE.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "raw-thread",
                    "raw std threading primitive; use the annotated "
                    "wrappers in common/mutex.h (Mutex/MutexLock/CondVar) "
                    "or ParallelFor so clang -Wthread-safety can check it "
                    "(DESIGN.md section 16)",
                )
            )

        if (
            not rel.startswith(WALL_CLOCK_ALLOWED_PREFIXES)
            and WALL_CLOCK_RE.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "wall-clock",
                    "wall-clock read outside common/stopwatch + "
                    "common/budget; clock reads in session/algorithm code "
                    "break checkpoint/replay determinism (DESIGN.md "
                    "sections 10 and 14)",
                )
            )

        if (
            not rel.startswith(RAW_ENUMERATE_ALLOWED_PREFIXES)
            and RAW_ENUMERATE_RE.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "raw-enumerate",
                    "direct EnumerateVertices call; go through "
                    "Polyhedron::Cut(), which maintains adjacency "
                    "incrementally and records audit evidence "
                    "(DESIGN.md section 17)",
                )
            )

        if (
            rel.startswith(MODEL_OWNERSHIP_SCOPES)
            and rel not in MODEL_OWNERSHIP_ALLOWED_FILES
            and MODEL_OWNERSHIP_RE.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "model-ownership",
                    "raw network/agent reference in serving-side code; "
                    "pin an immutable nn::ModelSnapshot from the "
                    "ModelRegistry instead (DESIGN.md section 18)",
                )
            )

        if (
            rel.startswith(TRAIN_LOOP_SCOPE)
            and not rel.startswith(TRAIN_LOOP_ALLOWED)
            and TRAIN_LOOP_RE.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "train-loop",
                    "replay write or exploration-schedule read outside the "
                    "one training loop; train through TrainEpisodes in "
                    "core/episode_engine.h, which drives the serving "
                    "session (DESIGN.md section 13)",
                )
            )

        if rel not in RAW_TARGET_ALLOWED_FILES and RAW_TARGET_RE.search(code):
            findings.append(
                (
                    rel,
                    lineno,
                    "raw-target",
                    "target / target_clones attribute outside "
                    "common/simd.h; mark the kernel ISRL_SIMD_TARGET_CLONES, "
                    "which keeps the TSan ifunc gate and the FMA-free clone "
                    "list (DESIGN.md sections 12 and 16)",
                )
            )

        if rel in HOT_FILES and HOT_CHECK_RE.search(code):
            findings.append(
                (
                    rel,
                    lineno,
                    "hot-check",
                    "ISRL_CHECK in a designated hot file; use ISRL_DCHECK "
                    "(see DESIGN.md section 11)",
                )
            )

        prev_raw = raw
    return findings


def main(argv: list) -> int:
    targets = [Path(a) for a in argv[1:]] or [REPO_ROOT / "src"]
    files = []
    for t in targets:
        t = t if t.is_absolute() else REPO_ROOT / t
        if t.is_dir():
            files.extend(
                p
                for p in sorted(t.rglob("*"))
                if p.suffix in {".h", ".cc", ".cpp", ".hpp"}
            )
        else:
            files.append(t)

    all_findings = []
    for f in files:
        all_findings.extend(lint_file(f))

    for rel, lineno, rule, msg in all_findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if all_findings:
        print(f"{len(all_findings)} finding(s)", file=sys.stderr)
    return min(len(all_findings), 255)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
