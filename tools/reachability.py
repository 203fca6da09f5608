#!/usr/bin/env python3
"""Reachability gate: fail on any isrl:: function that no binary reaches.

Builds every non-test executable of the root project plus benchmark/'s
isrl_e2e in Debug at -O0 with -ffunction-sections -fdata-sections, links
them with -Wl,--gc-sections, and compares `nm` of each binary with
libisrl.a. An isrl:: function defined in the library and present in no
binary is unreachable: the linker either never pulled its object file in
or dropped its section because nothing referenced it. Tests are not
binaries here, so a function that only tests call is unreachable too.

-O0 matters. At -O2 a callee whose only caller was inlined keeps no
out-of-line caller, so its own copy is dropped and it looks dead although
it runs.

Every unreachable function must match an entry of the allowlist
(tools/reachability_allowlist.txt), and every entry must match at least
one unreachable function; an entry that matches none is stale (the symbol
is gone or is now reached) and fails the gate too, so the list cannot rot.

Allowlist lines are `<kind> <qualified name> -- <reason>`. The name is the
demangled qualified name without its parameter list or ABI tag, so one
entry covers every overload, constructor variant and lambda of that name.
The kinds:

  test-hook   a hook that only tests install;
  audit       an audit-layer entry point (src/audit/);
  lemma       a core/validation.h lemma check;
  reference   a reference implementation; the reason names the test that
              compares against it as Suite.Name, and that test must exist
              under tests/.

Usage:
  python3 tools/reachability.py [--build-dir DIR] [--allowlist FILE]

Exit status 0 when the gate holds, 1 when it fails, 2 on a build error.
"""

import argparse
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ALLOWLIST = os.path.join(REPO, "tools", "reachability_allowlist.txt")
KINDS = ("test-hook", "audit", "lemma", "reference")

# The self-test (tools/reachability_selftest.py) builds its fixture with
# these flags too.
COMPILE_FLAGS = ["-O0", "-ffunction-sections", "-fdata-sections"]
LINK_FLAGS = ["-Wl,--gc-sections"]


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, text=True, **kw)


def function_symbols(path):
    """Mangled names of the function symbols `path` defines."""
    out = run(["nm", "--defined-only", path], stdout=subprocess.PIPE).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "t", "W", "w"):
            names.add(parts[2])
    return names


# A function declared in namespace isrl, or a lambda or local entity inside
# one, mangles as a nested name whose first component is `4isrl`. std::
# templates instantiated on isrl types (std::forward<isrl::Vec&>, ...)
# mangle under St instead, so they do not count as project functions.
PROJECT_SYMBOL = re.compile(r"^_ZZ?N[rVKRO]*4isrl")


def demangle(symbols):
    """{mangled: demangled} for `symbols`, in one c++filt call."""
    symbols = sorted(symbols)
    out = run(["c++filt"], input="\n".join(symbols),
              stdout=subprocess.PIPE).stdout.splitlines()
    return dict(zip(symbols, out))


def unreachable(library, binaries):
    """Demangled isrl:: functions defined in `library` that no binary
    defines. Constructor and destructor variants (C1/C2, D0/D1/D2)
    demangle alike and are reported once."""
    reached = set()
    for b in binaries:
        reached |= function_symbols(b)
    dead = {n for n in function_symbols(library)
            if PROJECT_SYMBOL.match(n) and n not in reached}
    return sorted(set(demangle(dead).values()))


def qualified_name(symbol):
    """`isrl::A::f(int) const` -> `isrl::A::f`: drop the parameter list,
    any ABI tag (`isrl::A::g[abi:cxx11]() const` -> `isrl::A::g`) and the
    return type that template instantiations demangle with
    (`void isrl::F<int>(int)` -> `isrl::F<int>`).

    Lambdas and local statics keep their enclosing function's name, so
    `isrl::f(int)::{lambda()#1}::operator()() const` -> `isrl::f`.
    """
    depth = 0
    start = 0
    i = 0
    while i < len(symbol):
        if symbol.startswith("operator", i):
            # operator(), operator<, operator bool: skip to the parameters.
            i = symbol.index("(", i + len("operator") + 1)
            continue
        c = symbol[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        elif c == "(" and depth == 0:
            symbol = symbol[start:i]
            break
        i += 1
    return re.sub(r"\[abi:\w+\]", "", symbol)


def cmake_executables(build_dir):
    """(name, path) of every executable target outside tests/, read from
    the CMake file API's codemodel reply."""
    reply = os.path.join(build_dir, ".cmake", "api", "v1", "reply")
    index = sorted(f for f in os.listdir(reply) if f.startswith("index-"))[-1]
    with open(os.path.join(reply, index)) as f:
        codemodel = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, codemodel)) as f:
        config = json.load(f)["configurations"][0]
    found = []
    for t in config["targets"]:
        with open(os.path.join(reply, t["jsonFile"])) as f:
            target = json.load(f)
        source = target["paths"]["source"]
        if target["type"] != "EXECUTABLE":
            continue
        if source == "tests" or source.startswith("tests/"):
            continue
        artifact = target["artifacts"][0]["path"]
        found.append((target["name"], os.path.join(build_dir, artifact)))
    return sorted(found)


def build_executables(source, build_dir):
    """Configures `source` in Debug with the gate's flags and builds its
    non-test executables. Returns {name: path}."""
    query = os.path.join(build_dir, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "a").close()
    run(["cmake", "-S", source, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=" + " ".join(COMPILE_FLAGS),
         "-DCMAKE_EXE_LINKER_FLAGS=" + " ".join(LINK_FLAGS)],
        stdout=subprocess.DEVNULL)
    binaries = dict(cmake_executables(build_dir))
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    for target in sorted(binaries):
        cmd += ["--target", target]
    run(cmd, stdout=subprocess.DEVNULL)
    return binaries


def build_all(build_dir):
    """Builds the root project's non-test executables and benchmark/'s.
    Returns (libisrl.a, {binary name: path})."""
    root = os.path.join(build_dir, "root")
    binaries = build_executables(REPO, root)
    binaries.update(build_executables(os.path.join(REPO, "benchmark"),
                                      os.path.join(build_dir, "benchmark")))
    return os.path.join(root, "src", "libisrl.a"), binaries


def defined_tests():
    """Suite.Name of every gtest case under tests/."""
    pattern = re.compile(r"^\s*TEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)",
                         re.M)
    tests = set()
    tests_dir = os.path.join(REPO, "tests")
    for name in os.listdir(tests_dir):
        if name.endswith(".cc"):
            with open(os.path.join(tests_dir, name)) as f:
                tests |= {f"{s}.{n}" for s, n in pattern.findall(f.read())}
    return tests


def read_allowlist(path):
    """Returns ({qualified name: kind}, [format errors])."""
    entries, errors = {}, []
    tests = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = re.match(r"^(\S+)\s+(isrl::\S+)\s+--\s+(\S.*)$", line)
            where = f"{path}:{lineno}"
            if not m:
                errors.append(f"{where}: expected `<kind> <isrl::name> -- "
                              f"<reason>`")
                continue
            kind, name, reason = m.groups()
            if kind not in KINDS:
                errors.append(f"{where}: kind `{kind}` is not one of "
                              f"{', '.join(KINDS)}")
            if kind == "reference":
                if tests is None:
                    tests = defined_tests()
                named = re.findall(r"\b(\w+\.\w+)\b", reason)
                if not any(t in tests for t in named):
                    errors.append(f"{where}: a reference entry must name the "
                                  f"test under tests/ that compares against "
                                  f"it (Suite.Name)")
            if name in entries:
                errors.append(f"{where}: duplicate entry {name}")
            entries[name] = kind
    return entries, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir",
                    default=os.path.join(REPO, "build-reachability"))
    ap.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    args = ap.parse_args()

    try:
        library, binaries = build_all(os.path.abspath(args.build_dir))
    except subprocess.CalledProcessError as e:
        print(f"reachability: build failed: {e}", file=sys.stderr)
        return 2

    dead = unreachable(library, binaries.values())
    allow, errors = read_allowlist(args.allowlist)

    used = set()
    failures = []
    for symbol in dead:
        name = qualified_name(symbol)
        if name in allow:
            used.add(name)
        else:
            failures.append(symbol)

    print(f"reachability: {len(binaries)} binaries, "
          f"{len(dead)} unreachable isrl:: functions "
          f"({len({qualified_name(s) for s in dead})} names), "
          f"{len(dead) - len(failures)} allowlisted")
    for symbol in failures:
        print(f"  unreachable: {symbol}")
    for name in sorted(set(allow) - used):
        print(f"  stale allowlist entry (gone or now reached): {name}")
    for e in errors:
        print(f"  {e}")
    ok = not failures and used == set(allow) and not errors
    print("reachability: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
