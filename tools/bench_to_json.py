#!/usr/bin/env python3
"""Distill paired A/B microbenchmark runs into a checked-in BENCH_*.json.

Runs the micro_substrates google-benchmark binary (or reads a previously
captured ``--benchmark_format=json`` dump) and pairs each variant
configuration with its baseline twin. Suites:

--suite micro (default, scalar vs batched; DESIGN.md section 12):
  BM_NnPredictBatch      raw network inference   args: {batch, mode}
  BM_DqnScoreCandidates  greedy action scoring   args: {pool, mode}
                         mode 0 = an Infer loop over the agent's network
plus the Rng engine's parity with the standard one (DESIGN.md section 14):
  BM_RngDraw             raw / SimplexUniform    args: {kind, mode}
                         mode 0 = std::mt19937_64, 1 = Rng's Mt19937_64
                         (fields std_cpu_ns / rng_cpu_ns)
and the top-1 scans (DESIGN.md section 12):
  BM_TopIndex            m top-1 queries         args: {shape, mode}
  BM_TerminalWinners     EA's P_R over m vectors args: {shape, mode}
                         mode 0 = the restated scalar scan, 1 = Dataset's
                         blocked kernel; shape = n points × d × m utilities
                         (fields loop_cpu_ns / kernel_cpu_ns)

--suite scheduler (sequential Interact() vs SessionScheduler with
cross-session coalesced Q-inference; DESIGN.md section 13):
  BM_SessionThroughputEa  N full EA episodes   args: {sessions, mode}
  BM_SessionThroughputAa  N full AA episodes   args: {sessions, mode}
plus the shard-count axis (ShardedScheduler, DESIGN.md section 15):
  BM_ShardedThroughputEa  N full EA episodes   args: {sessions, shards}
  BM_ShardedThroughputAa  N full AA episodes   args: {sessions, shards}
Shard-axis benchmarks are paired against their own shards == 1 row (the
same engine with one worker thread) and compared on wall-clock time
(UseRealTime), since thread-level speedup never shows in process CPU
time; both wall and CPU times are recorded so a single-core host, where
shards interleave instead of parallelize, is visible in the numbers.

--suite checkpoint (population snapshot save vs restore; DESIGN.md
section 14): BM_Checkpoint{Ea,Aa,UhRandom,UhSimplex,SinglePass,
UtilityApprox}, args: {sessions, mode} where mode 0 = CheckpointAll()
and mode 1 = RestoreAll(). Each record carries the snapshot_bytes
counter, so the checked-in file doubles as a size-regression table.

--suite registry (versioned model registry + trace harvesting; DESIGN.md
section 18) runs build/bench/registry_substrates:
  BM_RegistrySwap   N full EA episodes   args: {sessions, mode}
                    mode 0 = one pinned version, 1 = publish per admission
  BM_TraceHarvest   N full EA episodes   args: {sessions, mode}
                    mode 0 = no harvest sink, 1 = TraceStore harvesting

--suite geometry (incremental convex geometry and warm-started LP;
DESIGN.md section 17) runs build/bench/geo_substrates instead:
  BM_GeoCutSequence   12-cut session on UnitSimplex(d)  args: {d, mode}
                      mode 0 = full re-enumeration per cut, 1 = adjacency
  BM_GeoAaGeometry    AA rectangle's 2d extent LPs      args: {d, mode}
                      mode 0 = independent LPs, 1 = shared-phase-1 family
  BM_GeoExtremeSweep  extreme-point sweep over n points args: {n, mode}
                      mode 0 = cold LP per query, 1 = shared model + warm
plus one single-path row with no baseline twin:
  BM_GeoComputeAaGeometry  the whole AA geometry (inner-sphere LP + 2d
                      rectangle LPs) on session-shaped H  args: {d, |H|}
                      (field cpu_ns)

The output records, per configuration, both CPU times and their ratio, so
each checked-in BENCH_*.json is a self-contained before/after table.

Checked-in BENCH_*.json files must come from a Release build
(see CONTRIBUTING.md "Benchmarks"). The script records a build_type_ok
flag and warns loudly when the code under test was compiled without
NDEBUG (isrl_build_type custom context; falls back to the benchmark
library's own library_build_type when absent).

Usage:
  tools/bench_to_json.py [--suite micro|scheduler|checkpoint|registry|geometry]
                         [--bench build/bench/micro_substrates]
                         [--min-time 0.3] [--from-json raw.json]
                         [--out BENCH_<suite>.json]

Exit status is non-zero when any expected pair is missing, so CI can use a
short run of this script as a smoke test of the benchmark suite.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# kTopShapes in bench/micro_substrates.cc, by index.
TOP_SHAPES = ("n6413_d20_m65", "n1936_d20_m65", "n311_d4_m111",
              "n6413_d20_m1")

# Which slash-separated argument of each benchmark selects the execution
# path (0 = baseline, 1 = variant), and how to label the remaining arguments.
SUITES = {
    "micro": {
        "benchmarks": {
            "BM_NnPredictBatch": {
                "mode_arg": 1,
                "label": lambda rest: f"batch{rest[0]}",
            },
            "BM_DqnScoreCandidates": {
                "mode_arg": 1,
                "label": lambda rest: f"pool{rest[0]}",
            },
            "BM_RngDraw": {
                "mode_arg": 1,
                "label": lambda rest: ("raw1024", "simplex4x64")[rest[0]],
                "baseline_field": "std_cpu_ns",
                "variant_field": "rng_cpu_ns",
            },
            **{
                name: {
                    "mode_arg": 1,
                    "label": lambda rest: TOP_SHAPES[rest[0]],
                    "baseline_field": "loop_cpu_ns",
                    "variant_field": "kernel_cpu_ns",
                }
                for name in ("BM_TopIndex", "BM_TerminalWinners")
            },
        },
        # Field names keep their historical suite-specific spelling so the
        # checked-in BENCH_micro.json stays diff-stable.
        "baseline_field": "scalar_cpu_ns",
        "variant_field": "batched_cpu_ns",
        "note": "speedup = scalar_cpu_ns / batched_cpu_ns; both paths "
        "produce bit-identical results (DESIGN.md section 12). BM_RngDraw "
        "rows instead read speedup = std_cpu_ns / rng_cpu_ns: the same "
        "draws from std::mt19937_64 and from Rng's checkpointable "
        "Mt19937_64 (DESIGN.md section 14), so ~1.0 is the claim. "
        "BM_TopIndex / BM_TerminalWinners rows read speedup = loop_cpu_ns / "
        "kernel_cpu_ns: the restated scalar first-maximum scan against "
        "Dataset's attribute-blocked top-1 kernel at n points x d "
        "attributes x m utilities, with identical indices (DESIGN.md "
        "section 12)",
    },
    "scheduler": {
        "benchmarks": {
            "BM_SessionThroughputEa": {
                "mode_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            },
            "BM_SessionThroughputAa": {
                "mode_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            },
            # Shard-count axis: the argument is a worker-thread count, not
            # a binary mode. Every shards > 1 row pairs against the
            # shards == 1 row of the same session count, on wall-clock.
            "BM_ShardedThroughputEa": {
                "axis_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            },
            "BM_ShardedThroughputAa": {
                "axis_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            },
        },
        "baseline_field": "sequential_cpu_ns",
        "variant_field": "scheduler_cpu_ns",
        "note": "speedup = sequential_cpu_ns / scheduler_cpu_ns for N "
        "complete episodes; the scheduler interleaves all N sessions and "
        "coalesces their Q-inference into one PredictBatch per tick, with "
        "bit-identical per-session results (DESIGN.md section 13). "
        "BM_Sharded* rows instead report the shard-count axis: speedup = "
        "one_shard_wall_ns / sharded_wall_ns for the same N episodes on a "
        "ShardedScheduler with S worker-thread shards vs one (DESIGN.md "
        "section 15); the cpu fields carry total process CPU time, so "
        "wall ~= cpu means the host serialized the shards onto one core "
        "and the wall-clock ratio is the honest parallel speedup",
    },
    "checkpoint": {
        "benchmarks": {
            name: {
                "mode_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            }
            for name in (
                "BM_CheckpointEa",
                "BM_CheckpointAa",
                "BM_CheckpointUhRandom",
                "BM_CheckpointUhSimplex",
                "BM_CheckpointSinglePass",
                "BM_CheckpointUtilityApprox",
            )
        },
        "baseline_field": "save_cpu_ns",
        "variant_field": "restore_cpu_ns",
        "counters": ["snapshot_bytes"],
        "note": "speedup = save_cpu_ns / restore_cpu_ns for one scheduler "
        "population parked mid-conversation; save is CheckpointAll() "
        "(serialize every session into one framed, CRC-checked snapshot), "
        "restore is RestoreAll() (verify and rebuild every session); "
        "snapshot_bytes is the whole-population snapshot size "
        "(DESIGN.md section 14)",
    },
    "registry": {
        "binary": "registry_substrates",
        "benchmarks": {
            "BM_RegistrySwap": {
                "mode_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            },
            "BM_TraceHarvest": {
                "mode_arg": 1,
                "label": lambda rest: f"sessions{rest[0]}",
            },
        },
        "baseline_field": "plain_cpu_ns",
        "variant_field": "registry_cpu_ns",
        "note": "speedup = plain_cpu_ns / registry_cpu_ns for N complete "
        "EA episodes; both modes run identical seeded episodes. "
        "BM_TraceHarvest's variant distills every finished session into a "
        "TraceStore record through the scheduler's harvest sink — ~1.0 is "
        "the claim there. BM_RegistrySwap's variant publishes a fresh "
        "registry version before EVERY session admission (DESIGN.md "
        "section 18): each publish copies and fingerprints the network, "
        "and per-version snapshots fragment cross-session score "
        "coalescing, so < 1.0 prices the worst-case swap cadence — "
        "serving under a pinned snapshot (mode 0) is the steady state",
    },
    "geometry": {
        "binary": "geo_substrates",
        "benchmarks": {
            "BM_GeoCutSequence": {
                "mode_arg": 1,
                "label": lambda rest: f"d{rest[0]}",
            },
            "BM_GeoAaGeometry": {
                "mode_arg": 1,
                "label": lambda rest: f"d{rest[0]}",
            },
            "BM_GeoExtremeSweep": {
                "mode_arg": 1,
                "label": lambda rest: f"n{rest[0]}",
            },
            "BM_GeoComputeAaGeometry": {
                "single": True,
                "label": lambda args: f"d{args[0]}_h{args[1]}",
            },
        },
        "baseline_field": "rebuild_cpu_ns",
        "variant_field": "incremental_cpu_ns",
        "note": "speedup = rebuild_cpu_ns / incremental_cpu_ns; the "
        "baseline is the seed path (full vertex re-enumeration per cut / "
        "independent rectangle LPs / a cold LP per extreme-point query), "
        "the variant maintains state across solves (vertex-facet adjacency "
        "/ shared simplex phase 1 / warm-started bases). Both paths "
        "produce identical results: bit-identical vertices and AA "
        "geometry, identical extreme-point verdicts (DESIGN.md "
        "section 17). BM_GeoComputeAaGeometry rows time one path, "
        "ComputeAaGeometry's 2d+1 LPs at d x |H|, as cpu_ns; the checked-in "
        "table adds parent_cpu_ns, the same row built against the parent "
        "commit's src/ and run on the same host, and "
        "speedup_vs_parent = parent_cpu_ns / cpu_ns",
    },
}


def run_benchmarks(
    bench: Path, suite: dict, min_time: float, repetitions: int
) -> dict:
    bench_filter = "|".join(f"{name}/" for name in suite["benchmarks"])
    cmd = [
        str(bench),
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
    result = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def to_ns(row: dict, field: str = "cpu_time") -> float:
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return row[field] * scale.get(row.get("time_unit", "ns"), 1.0)


def fields(suite: dict, spec: dict) -> tuple:
    """The (baseline, variant) field names of one benchmark's records."""
    return (
        spec.get("baseline_field", suite["baseline_field"]),
        spec.get("variant_field", suite["variant_field"]),
    )


def distill(raw: dict, suite: dict) -> list:
    """Pairs baseline/variant rows; returns one record per configuration.

    With repetitions the median aggregate is used — single runs on a busy
    host swing by ±15%, medians are stable.
    """
    has_aggregates = any(
        row.get("run_type") == "aggregate" for row in raw.get("benchmarks", [])
    )
    # mode benchmarks: (benchmark, config-label) -> {"baseline": ns, ...}
    pairs = {}
    # single-path benchmarks: (benchmark, args) -> (config-label, ns),
    # keyed by the numeric args so that rows sort by size
    singles = {}
    # axis benchmarks: (benchmark, config-label) -> {axis-value: row-times}
    axes = {}
    for row in raw.get("benchmarks", []):
        if has_aggregates:
            if row.get("aggregate_name") != "median":
                continue
        elif row.get("run_type") == "aggregate":
            continue
        # UseRealTime/MeasureProcessCPUTime append non-numeric name parts
        # ("/process_time/real_time"); only the numeric parts are args.
        parts = row["name"].removesuffix("_median").split("/")
        base = parts[0]
        args = [int(p) for p in parts[1:] if p.lstrip("-").isdigit()]
        spec = suite["benchmarks"].get(base)
        if spec is None:
            continue
        if spec.get("single"):
            singles[(base, tuple(args))] = (spec["label"](args), to_ns(row))
            continue
        if "axis_arg" in spec:
            axis = args[spec["axis_arg"]]
            rest = [a for i, a in enumerate(args) if i != spec["axis_arg"]]
            key = (base, spec["label"](rest))
            # Wall-clock carries the thread-scaling story; CPU time rides
            # along so single-core serialization is visible.
            axes.setdefault(key, {})[axis] = {
                "wall": to_ns(row, "real_time"),
                "cpu": to_ns(row, "cpu_time"),
            }
            continue
        mode = args[spec["mode_arg"]]
        rest = [a for i, a in enumerate(args) if i != spec["mode_arg"]]
        key = (base, spec["label"](rest))
        entry = pairs.setdefault(key, {"spec": spec})
        entry["variant" if mode == 1 else "baseline"] = to_ns(row)
        for counter in suite.get("counters", []):
            if counter in row:
                entry.setdefault("counters", {})[counter] = row[counter]

    records, missing = [], []
    for (base, label), times in sorted(pairs.items()):
        if "baseline" not in times or "variant" not in times:
            missing.append(f"{base}[{label}]")
            continue
        baseline_field, variant_field = fields(suite, times["spec"])
        record = {
            "benchmark": base,
            "config": label,
            baseline_field: round(times["baseline"], 1),
            variant_field: round(times["variant"], 1),
            "speedup": round(times["baseline"] / times["variant"], 2),
        }
        for counter, value in times.get("counters", {}).items():
            record[counter] = round(value)
        records.append(record)
    for (base, label), by_axis in sorted(axes.items()):
        if 1 not in by_axis:
            missing.append(f"{base}[{label}] (no shards=1 baseline)")
            continue
        one = by_axis[1]
        for axis, timed in sorted(by_axis.items()):
            if axis == 1:
                continue
            records.append({
                "benchmark": base,
                "config": f"{label}/shards{axis}",
                "one_shard_wall_ns": round(one["wall"], 1),
                "sharded_wall_ns": round(timed["wall"], 1),
                "speedup": round(one["wall"] / timed["wall"], 2),
                "one_shard_cpu_ns": round(one["cpu"], 1),
                "sharded_cpu_ns": round(timed["cpu"], 1),
            })
        if len(by_axis) == 1:
            missing.append(f"{base}[{label}] (no shards>1 rows)")
    for (base, _), (label, ns) in sorted(singles.items()):
        records.append(
            {"benchmark": base, "config": label, "cpu_ns": round(ns, 1)}
        )
    if missing:
        raise SystemExit(f"unpaired benchmark configurations: {missing}")
    if not records:
        raise SystemExit("no paired benchmark rows found")
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="micro",
        help="which paired benchmark family to distill",
    )
    parser.add_argument(
        "--bench",
        type=Path,
        default=None,
        help="path to the benchmark binary (default: the suite's binary "
        "under build/bench/)",
    )
    parser.add_argument(
        "--min-time",
        type=float,
        default=0.3,
        help="--benchmark_min_time per configuration, in seconds",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=1,
        help="benchmark repetitions; > 1 records the median of each "
        "configuration instead of a single sample",
    )
    parser.add_argument(
        "--from-json",
        type=Path,
        default=None,
        help="parse an existing --benchmark_format=json dump instead of "
        "running the binary",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output file (default BENCH_<suite>.json at the repo root)",
    )
    args = parser.parse_args()
    suite = SUITES[args.suite]
    if args.out is None:
        args.out = REPO_ROOT / f"BENCH_{args.suite}.json"
    if args.bench is None:
        binary = suite.get("binary", "micro_substrates")
        args.bench = REPO_ROOT / "build" / "bench" / binary

    if args.from_json is not None:
        raw = json.loads(args.from_json.read_text())
    else:
        raw = run_benchmarks(args.bench, suite, args.min_time,
                             args.repetitions)

    context = raw.get("context", {})
    # Build-type hygiene: a debug-compiled binary produces numbers that
    # look plausible but are meaningless for the checked-in tables.
    # isrl_build_type is custom context emitted by the bench binaries
    # themselves (NDEBUG at their compile time); library_build_type is the
    # benchmark library's own report, which on distro-packaged
    # libbenchmark reads "debug" regardless of how isrl was built.
    build_type = context.get("isrl_build_type") or context.get(
        "library_build_type"
    )
    build_type_ok = build_type == "release"
    if not build_type_ok:
        print(
            "*" * 72
            + f"\n*** WARNING: benchmark binary build type is "
            f"'{build_type}', not 'release'.\n"
            "*** Timings below are NOT comparable to checked-in "
            "BENCH_*.json tables.\n"
            "*** Rebuild with -DCMAKE_BUILD_TYPE=Release before "
            "regenerating them\n"
            "*** (see CONTRIBUTING.md 'Benchmarks').\n" + "*" * 72,
            file=sys.stderr,
        )
    out = {
        "generated_by": "tools/bench_to_json.py",
        "date": context.get("date", "unknown"),
        "host": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
            "isrl_build_type": context.get("isrl_build_type"),
        },
        "build_type_ok": build_type_ok,
        "statistic": (
            f"median of {args.repetitions} repetitions"
            if args.from_json is None and args.repetitions > 1
            else "as captured"
        ),
        "note": suite["note"],
        "results": distill(raw, suite),
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for r in out["results"]:
        if "cpu_ns" in r:
            print(
                f"{r['benchmark']:<24} {r['config']:<12} "
                f"{r['cpu_ns'] / 1e3:>11.1f} us"
            )
            continue
        if "one_shard_wall_ns" in r:
            print(
                f"{r['benchmark']:<24} {r['config']:<20} "
                f"one_shard {r['one_shard_wall_ns'] / 1e3:>11.1f} us   "
                f"sharded {r['sharded_wall_ns'] / 1e3:>11.1f} us   "
                f"{r['speedup']:.2f}x (wall)"
            )
            continue
        base_field, variant_field = fields(
            suite, suite["benchmarks"][r["benchmark"]]
        )
        print(
            f"{r['benchmark']:<24} {r['config']:<12} "
            f"{base_field.removesuffix('_cpu_ns')} "
            f"{r[base_field] / 1e3:>11.1f} us   "
            f"{variant_field.removesuffix('_cpu_ns')} "
            f"{r[variant_field] / 1e3:>11.1f} us   "
            f"{r['speedup']:.2f}x"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
