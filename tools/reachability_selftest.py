#!/usr/bin/env python3
"""Self-test of tools/reachability.py on a three-function fixture.

Compiles a small library and a main with the gate's own flags, links them
the way the gate does and checks that the comparison
  - reports a function that nothing calls;
  - does not report a function whose only caller inlines it at -O2;
  - does not report a virtual override that is only reached through the
    vtable.
As a control, the inlined callee must look dead when the fixture is built
at -O2 instead, which is why the gate builds at -O0.

Usage:
  python3 tools/reachability_selftest.py --cxx COMPILER --work-dir DIR
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reachability  # noqa: E402

LIBRARY = r"""
namespace isrl {

int Orphan(int x) { return 3 * x; }

// Small enough that -O2 inlines it into Caller and drops its own copy.
int Callee(int x) { return x + 1; }
int Caller(int x) { return Callee(x) * 2; }

struct Shape {
  virtual ~Shape() = default;
  virtual int Sides() const = 0;
};
struct Square : Shape {
  int Sides() const override;
};
int Square::Sides() const { return 4; }

Shape* MakeSquare() { return new Square; }

}  // namespace isrl
"""

MAIN = r"""
namespace isrl {
struct Shape {
  virtual ~Shape() = default;
  virtual int Sides() const = 0;
};
int Caller(int x);
Shape* MakeSquare();
}  // namespace isrl

int main(int argc, char**) {
  isrl::Shape* s = isrl::MakeSquare();
  const int n = isrl::Caller(argc) + s->Sides();
  delete s;
  return n == 0;
}
"""

ORPHAN = "isrl::Orphan(int)"
CALLEE = "isrl::Callee(int)"
OVERRIDE = "isrl::Square::Sides() const"


def build(cxx, work, opt):
    """Builds the fixture at `opt` and returns what the gate reports."""
    os.makedirs(work, exist_ok=True)
    for name, text in (("library.cc", LIBRARY), ("main.cc", MAIN)):
        with open(os.path.join(work, name), "w") as f:
            f.write(text)
    flags = [opt] + [f for f in reachability.COMPILE_FLAGS
                     if not f.startswith("-O")]
    library = os.path.join(work, "libfixture.a")
    binary = os.path.join(work, "fixture")
    for name in ("library", "main"):
        reachability.run([cxx, *flags, "-c", os.path.join(work, name + ".cc"),
                          "-o", os.path.join(work, name + ".o")])
    if os.path.exists(library):
        os.remove(library)
    reachability.run(["ar", "rcs", library, os.path.join(work, "library.o")])
    reachability.run([cxx, *reachability.LINK_FLAGS,
                      os.path.join(work, "main.o"), library, "-o", binary])
    return set(reachability.unreachable(library, [binary]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cxx", default="c++")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    gate = build(args.cxx, os.path.join(args.work_dir, "gate"),
                 reachability.COMPILE_FLAGS[0])
    o2 = build(args.cxx, os.path.join(args.work_dir, "o2"), "-O2")
    checks = [
        ("a function with no caller is reported", ORPHAN in gate),
        ("a callee inlined at -O2 is not reported", CALLEE not in gate),
        ("a vtable-reached override is not reported", OVERRIDE not in gate),
        ("control: at -O2 the inlined callee looks dead", CALLEE in o2),
    ]
    for what, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not all(ok for _, ok in checks):
        print(f"reported at the gate's flags: {sorted(gate)}")
        print(f"reported at -O2: {sorted(o2)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
