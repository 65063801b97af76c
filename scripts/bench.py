"""Before-and-after numbers of a change, written to one BENCH file.

    python3 scripts/bench.py --out BENCH_<label>.json [--parent DIR]

Measures the checkout this script lives in ("change") and, with --parent, a
second checkout of the parent commit ("parent") the same way, REPEATS times,
alternating which side goes first in each repeat.  Per side and repeat it
records:

- the wall time of a fresh ``python -m weiljet verify --seed S`` for each
  seed in SEEDS, with the exit code and a digest of its stdout and stderr,
  so equal digests show byte-identical reports;
- Poisson and symplectic decisions per second over one round of
  perfbench's decide workload, run against the checkout's sources in a fresh
  process by this checkout's ``perfbench/worker.py`` (``workloads.Decide`` on
  the inputs ``reference.make_inputs`` draws for DECIDE_SEED), so both sides
  run the same benchmark code; its outputs are checked by
  ``reference.check`` and its rates are perfbench's ``family_figures``;
- the cold start of ``python -m weiljet algebra --algebra dual``;
- as ``import_s``, the wall time of a fresh ``python -c "import weiljet.cli"``;
- as ``symbolic_build_s``, the median of SYMBOLIC_PASSES passes of symbolic
  construction after the import in one fresh process: in each pass, each
  deep input of perfbench's jets workload (drawn for JETS_SEED) parsed,
  differentiated along its ``seq`` and composed with ``[x1, x0]``, every
  result kept alive to the end of the pass, so partials built for one input
  are reused by the next as in a jets round, and none by the next pass;
- as ``algebra_build_s.K,H``, the time ``make_truncated_algebra(K, H)``
  takes for each algebra of perfbench's jets workload (dimensions 2 to 70),
  each built once in one fresh process;
- as ``mutation_sweep_s``, the wall time of one mutation sweep of
  perfbench's suite workload (``workloads.Suite(...).sweep()``: every
  mutation on each of its target checks, through the CLI) in a fresh
  process, after one untimed sweep; every mutation must be caught by its
  target check;
- layer figures from one fresh process: as ``cap_build_s.K,H`` and
  ``cap_build_peak_mb.K,H``, the best of five builds of each algebra in
  CAP_ALGEBRAS and the tracemalloc peak of one more, and as
  ``matrix_inverse_s.M.K,H`` (``.real`` for real matrices), the best of five
  pointwise solves ``symplectic._matrix_inverse`` of a batch of
  SOLVE_BATCH random M x M matrices over ``truncated:K,H``;

and once per side the line count of ``src/``, in all (``src_lines``) and per
module (``src_lines.<path under src/>``), the tree it measured (the
commit, and a digest of the uncommitted changes under ``src/`` and
``perfbench/``, null when there are none), the sorted ``weiljet.*`` modules
that ``import weiljet.cli`` loads (``import_modules``), whether the
measuring environment writes no bytecode caches (``dont_write_bytecode``,
which makes every fresh process compile what it imports), the state of this
interpreter's bytecode cache of each module under ``src/`` when the side is
first measured (``bytecode_cache``: "absent", "fresh" or "stale"; without
cache writes, every fresh process recompiles a module whose cache is absent
or stale, which shows in the start-up figures) and, per seed, the
cProfile total call count of one extra, untimed ``verify`` run as
``verify_calls.S``.
Call counts are deterministic, so they show where work moved when wall
times cannot.  The machine record (nproc, Python, numpy, BLAS threads) and
the pinned BLAS environment are perfbench's.  With --parent, each figure is
also compared pair by pair: in how many repeats the change did better, the
gain of the change's median, and the parent's interquartile range.  The
last line of stdout is a JSON summary of the medians.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import pstats
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402  (perfbench's input maker and output checker)
from common import child_env, machine_record, median  # noqa: E402
from run import family_figures  # noqa: E402

REPEATS = 10
SEEDS = (42, 7, 1000)
DECIDE_SEED = 1
JETS_SEED = 1
TIMEOUT_S = 300
RATES = ("poisson_decisions_per_s", "symplectic_decisions_per_s")
# Figures where a lower value is better; the rest are rates.
LOWER_IS_BETTER = ("verify_s.", "cli_start_s", "import_s", "algebra_build_s.",
                   "symbolic_build_s", "mutation_sweep_s", "cap_build_s.",
                   "cap_build_peak_mb.", "matrix_inverse_s.")
# Single figures timed once per repeat.
TIMES = ("cli_start_s", "import_s", "symbolic_build_s", "mutation_sweep_s")
# (width, height) of the truncated algebras whose build is timed
BUILD_ALGEBRAS = reference.WIDE_ALGEBRAS
# Times each build of argv[1]'s (width, height) list after the import.
BUILD_CHILD = """
import json, sys, time
from weiljet.algebra import make_truncated_algebra
spent = {}
for width, height in json.loads(sys.argv[1]):
    t0 = time.perf_counter()
    make_truncated_algebra(width, height)
    spent[f"{width},{height}"] = time.perf_counter() - t0
print(json.dumps(spent))
"""
# (width, height) of the largest truncated algebras, at the dimension cap
CAP_ALGEBRAS = ((1, 511), (511, 1), (2, 30))
# (size, width, height, real) of the timed pointwise solves
SOLVES = ((2, 2, 2, False), (4, 2, 2, False), (8, 3, 4, False), (8, 3, 4, True))
SOLVE_BATCH = 32
# Prints the layer figures of argv[1]'s [CAP_ALGEBRAS, SOLVES, SOLVE_BATCH].
LAYER_CHILD = """
import json, sys, time, tracemalloc
import numpy as np
from weiljet.algebra import make_truncated_algebra
from weiljet.symplectic import _matrix_inverse
def best(call):
    spent = []
    for _ in range(5):
        t0 = time.perf_counter()
        call()
        spent.append(time.perf_counter() - t0)
    return min(spent)
caps, solves, batch = json.loads(sys.argv[1])
out = {}
for width, height in caps:
    out[f"cap_build_s.{width},{height}"] = best(
        lambda: make_truncated_algebra(width, height))
    tracemalloc.start()
    make_truncated_algebra(width, height)
    out[f"cap_build_peak_mb.{width},{height}"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
rng = np.random.default_rng(0)
for size, width, height, real in solves:
    algebra = make_truncated_algebra(width, height)
    stack = rng.uniform(-1.0, 1.0, (batch, size, size, algebra.dim))
    stack[..., 0] += 3.0 * np.eye(size)
    if real:
        stack[..., 1:] = 0.0
    name = f"matrix_inverse_s.{size}.{width},{height}" + (".real" if real else "")
    out[name] = best(lambda: _matrix_inverse(algebra, stack))
print(json.dumps(out))
"""
# Passes of symbolic construction timed in one child; it prints their median.
SYMBOLIC_PASSES = 15
# Prints the median time of argv[2] passes of symbolic construction of
# argv[1]'s jets deep inputs after the import.  A pass keeps its results
# alive only until it returns, so the collection before the next pass
# empties the intern table and every pass builds every node.
SYMBOLIC_CHILD = """
import gc, json, statistics, sys, time
from weiljet.expression import compose, differentiate, parse_expr, var
deep, passes = json.loads(sys.argv[1]), int(sys.argv[2])
def one_pass():
    built = []
    t0 = time.perf_counter()
    for op in deep:
        f = parse_expr(op["expr"], op["arity"])
        for i in op["seq"]:
            f = differentiate(f, i)
        built.append(compose(f, [var(1, op["arity"]), var(0, op["arity"])]))
    return time.perf_counter() - t0
spent = []
for _ in range(passes):
    gc.collect()
    spent.append(one_pass())
print(json.dumps(statistics.median(spent)))
"""
# Times one mutation sweep of the suite workload on argv[2]'s inputs after an
# untimed one, with argv[1]'s perfbench modules.
SWEEP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import workloads
suite = workloads.Suite(json.loads(sys.argv[2]))
suite.sweep()
t0 = time.perf_counter()
sweeps, _ = suite.sweep()
print(json.dumps({"s": time.perf_counter() - t0, "sweeps": sweeps}))
"""
# Prints the weiljet submodules importing the CLI loads, and the
# interpreter's bytecode flag.
IMPORT_CHILD = """
import json, sys
import weiljet.cli
print(json.dumps({"import_modules": sorted(name for name in sys.modules
                                           if name.startswith("weiljet.")),
                  "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}))
"""
# Where an uncommitted change moves the numbers.
MEASURED_PATHS = ("src", "perfbench")


class BenchError(Exception):
    """A measured command failed or gave wrong outputs."""


def uncaught(sweeps: list) -> list[str]:
    """The sweeps whose mutation its target check did not catch: the run
    must exit 5 with the target's report failing."""
    missed = []
    for sweep in sweeps:
        reports = [json.loads(line) for line in sweep["out"].splitlines()]
        if sweep["code"] != 5 or not any(
                r["name"] == sweep["target"] and r["passed"] is False
                for r in reports):
            missed.append(f"{sweep['mutation']} on {sweep['target']}")
    return missed


def run(root: Path, argv: list[str], stdin: str | None = None):
    """Run one child in ``root`` against that checkout's sources."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                          cwd=root, env=child_env(str(root)), timeout=TIMEOUT_S)
    return proc, time.perf_counter() - t0


def module_lines(root: Path) -> dict[str, int]:
    """The line count of each module under ``src/``, by its path there."""
    src = root / "src"
    return {path.relative_to(src).as_posix(): len(path.read_text().splitlines())
            for path in sorted(src.rglob("*.py"))}


def bytecode_caches(root: Path) -> dict[str, str]:
    """Per module under ``src/``, by its path there, the state of this
    interpreter's bytecode cache of it: "absent", "fresh" when it matches
    the source as the import checks it (by modification time and size, or
    by source hash for a hash-based cache), else "stale"."""
    src = root / "src"
    out = {}
    for path in sorted(src.rglob("*.py")):
        cache = Path(importlib.util.cache_from_source(str(path)))
        if not cache.exists():
            out[path.relative_to(src).as_posix()] = "absent"
            continue
        header = cache.read_bytes()[:16]
        if int.from_bytes(header[4:8], "little") & 1:
            source = importlib.util.source_hash(path.read_bytes())
        else:
            stat = path.stat()
            source = ((int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                      + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
        fresh = header[:4] == importlib.util.MAGIC_NUMBER and header[8:] == source
        out[path.relative_to(src).as_posix()] = "fresh" if fresh else "stale"
    return out


def src_lines(root: Path) -> int:
    return sum(module_lines(root).values())


def git(root: Path, *argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=root, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def verify_calls(root: Path) -> dict:
    """Per seed, the total call count cProfile records over one
    ``verify`` run in ``root``."""
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            profile = Path(tmp) / f"verify_{seed}.prof"
            proc, _ = run(root, [sys.executable, "-m", "cProfile", "-o", str(profile),
                                 "-m", "weiljet", "verify", "--seed", str(seed)])
            if not profile.exists():
                raise BenchError(f"profiled verify in {root} wrote no profile:\n"
                                 f"{proc.stderr[-2000:]}")
            counts[str(seed)] = pstats.Stats(str(profile)).total_calls
    return counts


def import_state(root: Path) -> dict:
    """What ``import weiljet.cli`` loads in ``root``, and whether the
    measuring environment writes bytecode caches."""
    proc, _ = run(root, [sys.executable, "-c", IMPORT_CHILD])
    if proc.returncode != 0:
        raise BenchError(f"importing the CLI failed in {root}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def tree_state(root: Path) -> dict:
    """The commit measured, and a digest of what differs from it under
    MEASURED_PATHS (tracked changes and untracked file names), or None."""
    changes = (git(root, "diff", "HEAD", "--", *MEASURED_PATHS)
               + git(root, "ls-files", "--others", "--exclude-standard", "--",
                     *MEASURED_PATHS))
    return {"commit": git(root, "rev-parse", "HEAD").strip(),
            "uncommitted_sha256": (hashlib.sha256(changes.encode()).hexdigest()
                                   if changes else None)}


def measure_once(root: Path, decide, deep: list, suite: dict, side: dict) -> str:
    """One repeat on one checkout, appended to ``side``; returns the numpy
    version the checkout's measuring process reported.  ``decide`` holds
    the decide workload's inputs and expected outputs, ``deep`` the jets
    workload's deep inputs, ``suite`` the suite workload's inputs."""
    for seed in SEEDS:
        proc, spent = run(root, [sys.executable, "-m", "weiljet", "verify",
                                 "--seed", str(seed)])
        digest = hashlib.sha256((proc.stdout + "\0" + proc.stderr).encode())
        entry = side["verify"].setdefault(str(seed), {"s": [], "runs": []})
        entry["s"].append(spent)
        entry["runs"].append({"exit": proc.returncode,
                              "sha256": digest.hexdigest()})

    inputs, expect = decide
    proc, _ = run(root, [sys.executable, str(ROOT / "perfbench" / "worker.py"),
                         "--mode", "measure", "--workload", "decide"],
                        json.dumps(inputs))
    if proc.returncode != 0:
        raise BenchError(f"decide worker in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    problems, failed = reference.check("decide", inputs, expect, result["outputs"])
    if problems or failed:
        raise BenchError(f"decide outputs in {root} are wrong: {problems[:3]}")
    for name, (ops, seconds) in zip(RATES, family_figures("decide",
                                                         result["rounds"])):
        side[name].append(ops / seconds)

    proc, spent = run(root, [sys.executable, "-m", "weiljet", "algebra",
                             "--algebra", "dual"])
    if proc.returncode != 0 or json.loads(proc.stdout).get("dim") != 2:
        raise BenchError(f"cold-start command failed in {root}: {proc.stderr[-500:]}")
    side["cli_start_s"].append(spent)

    proc, spent = run(root, [sys.executable, "-c", "import weiljet.cli"])
    if proc.returncode != 0:
        raise BenchError(f"importing the CLI failed in {root}: {proc.stderr[-500:]}")
    side["import_s"].append(spent)

    proc, _ = run(root, [sys.executable, "-c", SYMBOLIC_CHILD, json.dumps(deep),
                         str(SYMBOLIC_PASSES)])
    if proc.returncode != 0:
        raise BenchError(f"symbolic construction failed in {root}: {proc.stderr[-500:]}")
    side["symbolic_build_s"].append(json.loads(proc.stdout))

    proc, _ = run(root, [sys.executable, "-c", BUILD_CHILD,
                         json.dumps(BUILD_ALGEBRAS)])
    if proc.returncode != 0:
        raise BenchError(f"algebra builds failed in {root}: {proc.stderr[-500:]}")
    for key, spent in json.loads(proc.stdout).items():
        side["algebra_build_s"].setdefault(key, []).append(spent)

    proc, _ = run(root, [sys.executable, "-c", LAYER_CHILD,
                         json.dumps([CAP_ALGEBRAS, SOLVES, SOLVE_BATCH])])
    if proc.returncode != 0:
        raise BenchError(f"layer figures failed in {root}: {proc.stderr[-500:]}")
    for name, value in json.loads(proc.stdout).items():
        side["layers"].setdefault(name, []).append(value)

    proc, _ = run(root, [sys.executable, "-c", SWEEP_CHILD, str(ROOT / "perfbench"),
                         json.dumps(suite)])
    if proc.returncode != 0:
        raise BenchError(f"mutation sweep failed in {root}: {proc.stderr[-500:]}")
    sweep = json.loads(proc.stdout)
    missed = uncaught(sweep["sweeps"])
    if missed:
        raise BenchError(f"mutations not caught in {root}: {missed}")
    side["mutation_sweep_s"].append(sweep["s"])
    return result["numpy"]


def series(side: dict) -> dict:
    """Each figure's values, one per repeat."""
    out = {f"verify_s.{seed}": entry["s"]
           for seed, entry in side["verify"].items()}
    for name in RATES + TIMES:
        out[name] = side[name]
    out.update({f"algebra_build_s.{key}": values
                for key, values in side["algebra_build_s"].items()})
    out.update(side["layers"])
    return out


def summary(side: dict) -> dict:
    out = {name: median(values) for name, values in series(side).items()}
    out.update({f"verify_calls.{seed}": count
                for seed, count in side["verify_calls"].items()})
    out["src_lines"] = side["src_lines"]
    out.update({f"src_lines.{module}": count
                for module, count in side["module_lines"].items()})
    return out


def comparison(change: dict, parent: dict) -> dict:
    """Per figure: the repeats in which the change did better, the gain of
    its median over the parent's (positive when better) and the parent's
    interquartile range, which a gain must exceed to show."""
    out = {}
    old_series = series(parent)
    for name, new in series(change).items():
        old = old_series[name]
        sign = -1.0 if name.startswith(LOWER_IS_BETTER) else 1.0
        q1, _, q3 = statistics.quantiles(old, n=4)
        out[name] = {"change_better": sum(sign * (n - o) > 0
                                          for n, o in zip(new, old)),
                     "pairs": len(new),
                     "median_gain": sign * (median(new) - median(old)),
                     "parent_iqr": q3 - q1}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH JSON file to write")
    parser.add_argument("--parent", type=Path,
                        help="a checkout of the parent commit to measure alongside")
    args = parser.parse_args(argv)

    roots = {"change": ROOT}
    if args.parent is not None:
        roots["parent"] = args.parent.resolve()
    decide = reference.make_inputs("decide", DECIDE_SEED)
    deep = reference.make_inputs("jets", JETS_SEED)[0]["deep"]
    suite = reference.make_inputs("suite", 0)[0]
    numpy_version = None
    try:
        sides = {name: {**tree_state(root), "src_lines": src_lines(root),
                        "module_lines": module_lines(root),
                        "bytecode_cache": bytecode_caches(root),
                        **import_state(root),
                        "verify_calls": verify_calls(root), "verify": {},
                        "algebra_build_s": {}, "layers": {},
                        **{figure: [] for figure in RATES + TIMES}}
                 for name, root in roots.items()}
        for repeat in range(REPEATS):
            order = list(roots) if repeat % 2 == 0 else list(reversed(roots))
            for name in order:
                numpy_version = measure_once(roots[name], decide, deep, suite,
                                             sides[name])
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 1

    record = {
        "machine": {key: value for key, value in
                    machine_record(str(ROOT), numpy_version).items()
                    if key != "commit"},
        "settings": {"repeats": REPEATS, "seeds": list(SEEDS),
                     "decide_seed": DECIDE_SEED, "jets_seed": JETS_SEED,
                     "order": "alternating, change first in even repeats"},
        "summary": {name: summary(side) for name, side in sides.items()},
    }
    if "parent" in sides:
        record["comparison"] = comparison(sides["change"], sides["parent"])
    record["sides"] = sides
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for name, figures in record["summary"].items():
        for key, value in figures.items():
            print(f"{name:7s} {key:30s} {value:.6g}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
