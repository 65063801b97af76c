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
- as ``algebra_build_s.K,H``, the time ``make_truncated_algebra(K, H)``
  takes for each algebra of perfbench's jets workload (dimensions 2 to 70),
  each built once in one fresh process;

and once per side the line count of ``src/``, the tree it measured (the
commit, and a digest of the uncommitted changes under ``src/`` and
``perfbench/``, null when there are none), the sorted ``weiljet.*`` modules
that ``import weiljet.cli`` loads (``import_modules``), whether the
measuring environment writes no bytecode caches (``dont_write_bytecode``,
which makes every fresh process compile what it imports) and, per seed, the
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
TIMEOUT_S = 300
RATES = ("poisson_decisions_per_s", "symplectic_decisions_per_s")
# Figures where a lower value is better; the rest are rates.
LOWER_IS_BETTER = ("verify_s.", "cli_start_s", "import_s", "algebra_build_s.")
# Single figures timed once per repeat.
TIMES = ("cli_start_s", "import_s")
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


def run(root: Path, argv: list[str], stdin: str | None = None):
    """Run one child in ``root`` against that checkout's sources."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                          cwd=root, env=child_env(str(root)), timeout=TIMEOUT_S)
    return proc, time.perf_counter() - t0


def src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((root / "src").rglob("*.py")))


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


def measure_once(root: Path, decide, side: dict) -> str:
    """One repeat on one checkout, appended to ``side``; returns the numpy
    version the checkout's measuring process reported."""
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

    proc, _ = run(root, [sys.executable, "-c", BUILD_CHILD,
                         json.dumps(BUILD_ALGEBRAS)])
    if proc.returncode != 0:
        raise BenchError(f"algebra builds failed in {root}: {proc.stderr[-500:]}")
    for key, spent in json.loads(proc.stdout).items():
        side["algebra_build_s"].setdefault(key, []).append(spent)
    return result["numpy"]


def series(side: dict) -> dict:
    """Each figure's values, one per repeat."""
    out = {f"verify_s.{seed}": entry["s"]
           for seed, entry in side["verify"].items()}
    for name in RATES + TIMES:
        out[name] = side[name]
    out.update({f"algebra_build_s.{key}": values
                for key, values in side["algebra_build_s"].items()})
    return out


def summary(side: dict) -> dict:
    out = {name: median(values) for name, values in series(side).items()}
    out.update({f"verify_calls.{seed}": count
                for seed, count in side["verify_calls"].items()})
    out["src_lines"] = side["src_lines"]
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
    numpy_version = None
    try:
        sides = {name: {**tree_state(root), "src_lines": src_lines(root),
                        **import_state(root),
                        "verify_calls": verify_calls(root), "verify": {},
                        "algebra_build_s": {},
                        **{figure: [] for figure in RATES + TIMES}}
                 for name, root in roots.items()}
        for repeat in range(REPEATS):
            order = list(roots) if repeat % 2 == 0 else list(reversed(roots))
            for name in order:
                numpy_version = measure_once(roots[name], decide, sides[name])
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 1

    record = {
        "machine": {key: value for key, value in
                    machine_record(str(ROOT), numpy_version).items()
                    if key != "commit"},
        "settings": {"repeats": REPEATS, "seeds": list(SEEDS),
                     "decide_seed": DECIDE_SEED,
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
