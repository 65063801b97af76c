"""weiljet benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload suite|jets|decide --seed N \\
        --seconds S --trace 0|1

Runs in a source checkout, from any directory, and loads the program from
the checkout's ``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record (machine, per-round figures, problems found) is written to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import time

from common import child_env, digest, machine_record, median, strict_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

TIME_LIMIT_S = 170.0
# The measured rounds run in two measuring processes, one after the other,
# each for half the run, so repeated passes are compared across processes.
# Fresh-process probes (set-up and CLI cold start) run in three batches:
# before, between and after them.  The machine's speed drifts over seconds,
# and medians over samples spread across the run ride that out best.
MEASURING_PROCESSES = 2
PROBES_PER_BATCH = 3

# The two input families of each workload, in the order of the metrics
# primary_ops_per_s and secondary_ops_per_s.
FAMILIES = {"suite": ("verify", "mutate"), "jets": ("wide", "deep"),
            "decide": ("poisson", "symplectic")}

# The same figures under the names the README's metric table uses.  A name
# with a count is a time: the family's seconds per set, with that many sets
# in a round (a suite round runs the five sweeps twice).  A name with None
# is the family's rate.
NAMED = {
    "suite": (("verify_s", "s", 1), ("mutation_sweep_s", "s", 2)),
    "jets": (("wide_jet_evals_per_s", "1/s", None),
             ("deep_jets_per_s", "1/s", None)),
    "decide": (("poisson_decisions_per_s", "1/s", None),
               ("symplectic_decisions_per_s", "1/s", None)),
}


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


class Clock:
    def __init__(self, limit: float):
        self.deadline = time.monotonic() + limit

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left


def run_child(argv, clock: Clock, stdin: str | None = None):
    """Run one child to its end (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True,
                              text=True, env=child_env(ROOT), cwd=ROOT,
                              timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv[:4])}") from None
    return proc


def worker(args, inputs_text: str, clock: Clock) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = run_child(argv, clock, inputs_text)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:"
                         f"\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_processes(workload: str, inputs_text: str, clock: Clock,
                    count: int, probes: dict) -> None:
    """Append ``count`` set-up probes and cold starts to ``probes``.

    A set-up probe is a fresh worker that imports weiljet and builds the
    workload's inputs.  A cold start is the wall time of a fresh ``python -m
    weiljet algebra --algebra dual``, whose output must describe the dual
    numbers."""
    setup = ["--mode", "setup", "--workload", workload]
    cold = [sys.executable, "-m", "weiljet", "algebra", "--algebra", "dual"]
    for _ in range(count):
        probes["setup"].append(worker(setup, inputs_text, clock))
        t0 = time.perf_counter()
        proc = run_child(cold, clock)
        probes["cli_start"].append(time.perf_counter() - t0)
        doc = strict_json(proc.stdout) if proc.returncode == 0 else None
        if not isinstance(doc, dict) or doc.get("dim") != 2:
            raise BenchError(f"cold-start command failed: {proc.stderr[-500:]}")


def family_figures(workload: str, rounds: list[dict]) -> list[tuple]:
    """(operations, seconds) per family, summed over all rounds: work
    completed per second is their ratio."""
    out = []
    for family in FAMILIES[workload]:
        times = [t for r in rounds for t in r["families"][family]]
        out.append((len(times), sum(times)))
    return out


def self_test(workload: str, reference, inputs, expect, outputs) -> list[str]:
    """Each checker must reject a corrupted copy of this run's outputs."""
    misses = []

    def rejects(label, corrupt):
        broken = copy.deepcopy(outputs)
        corrupt(broken)
        problems, _ = reference.check(workload, inputs, expect, broken)
        if not problems:
            misses.append(f"checker accepted {label}")

    if workload == "jets":
        def bump(o):
            o["wide"][-1][-1] += 1e-6 * (1.0 + abs(o["wide"][-1][-1]))
        rejects("a perturbed coefficient", bump)
    elif workload == "decide":
        kinds = [w["kind"] for w in expect]

        def flip(o):
            r = o["results"][kinds.index("verdict")]
            doc = json.loads(r["out"])
            doc["locally"] = not doc["locally"]
            r["out"] = json.dumps(doc) + "\n"

        def bump(o):
            r = o["results"][kinds.index("value")]
            doc = json.loads(r["out"])
            doc["coeffs"][-1] += 1e-6 * (1.0 + abs(doc["coeffs"][-1]))
            r["out"] = json.dumps(doc) + "\n"
        rejects("a flipped verdict", flip)
        rejects("a perturbed coefficient", bump)
    else:
        def flip(o):
            o["verify"]["out"] = o["verify"]["out"].replace(
                '"passed":true', '"passed":false', 1)
        rejects("a flipped verdict", flip)
        changed = copy.deepcopy(outputs)
        text = changed["verify"]["out"]
        at = text.index('"worst_residual":') + len('"worst_residual":')
        changed["verify"]["out"] = (text[:at] + ("1" if text[at] != "1" else "2")
                                    + text[at + 1:])
        if digest(changed) == digest(outputs):
            misses.append("byte-identity accepted a changed report byte")
    return misses


def run(args) -> dict:
    clock = Clock(TIME_LIMIT_S)
    if not os.path.isfile(os.path.join(ROOT, "src", "weiljet", "__init__.py")):
        raise BenchError(f"no weiljet sources under {ROOT}/src")
    import reference

    inputs, expect = reference.make_inputs(args.workload, args.seed)
    inputs_text = json.dumps(inputs)
    # A first, dropped probe leaves the bytecode caches warm, as an
    # installed package has them.
    fresh_processes(args.workload, inputs_text, clock, 1,
                    {"setup": [], "cli_start": []})
    probes = {"setup": [], "cli_start": []}
    fresh_processes(args.workload, inputs_text, clock, PROBES_PER_BATCH,
                    probes)

    measure = ["--mode", "measure", "--workload", args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # Untraced baseline round, then two traced rounds in fresh processes:
        # their counts must repeat exactly.
        spans = os.path.join(RESULTS, f"{tag}.spans.npz")
        runs = [worker(measure + ["--trace", "0"], inputs_text, clock),
                worker(measure + ["--trace", "1", "--spans", spans],
                       inputs_text, clock),
                worker(measure + ["--trace", "1"], inputs_text, clock)]
    else:
        runs = []
        for _ in range(MEASURING_PROCESSES):
            share = args.seconds / MEASURING_PROCESSES
            runs.append(worker(measure + ["--seconds", str(share)],
                               inputs_text, clock))
            fresh_processes(args.workload, inputs_text, clock,
                            PROBES_PER_BATCH, probes)

    problems, failed_per_round = reference.check(
        args.workload, inputs, expect, runs[0]["outputs"])
    digests = [d for r in runs for d in r["digests"]]
    if len(digests) < 2:
        problems.append("fewer than two rounds to compare")
    if len(set(digests)) != 1:
        problems.append("rounds gave different outputs for the same inputs")
    problems += self_test(args.workload, reference, inputs, expect,
                          runs[0]["outputs"])
    rounds = [r for run_ in runs for r in run_["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = failed_per_round * len(rounds)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(ROOT, runs[0]["numpy"]),
              "problems": problems, "rounds": rounds}
    if args.trace:
        from layers import COUNT_KEYS
        traced, repeat = runs[1]["trace"], runs[2]["trace"]
        if any(traced[k] != repeat[k] for k in COUNT_KEYS):
            problems.append("layer counts differ between traced runs: "
                            + ", ".join(f"{k} {traced[k]['value']} vs "
                                        f"{repeat[k]['value']}"
                                        for k in COUNT_KEYS))
        traced["cli.import_s"] = {
            "value": median(p["import_s"] for p in probes["setup"]),
            "unit": "s"}
        traced["trace.overhead_s"] = {
            "value": (runs[1]["rounds"][0]["round_s"]
                      - runs[0]["rounds"][0]["round_s"]), "unit": "s"}
        metrics = {k: traced[k] for k in sorted(traced)}
        record["untraced_round_s"] = runs[0]["rounds"][0]["round_s"]
        record["traced_round_s"] = runs[1]["rounds"][0]["round_s"]
    else:
        figures = family_figures(args.workload, rounds)
        primary, secondary = (ops / seconds for ops, seconds in figures)
        metrics = {
            "setup_s": {"value": median(p["setup_s"] for p in probes["setup"]),
                        "unit": "s"},
            "primary_ops_per_s": {"value": primary, "unit": "1/s"},
            "secondary_ops_per_s": {"value": secondary, "unit": "1/s"},
            "cli_start_s": {"value": median(probes["cli_start"]),
                            "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
        }
        named = {}
        for (name, unit, sets), (ops, seconds) in zip(NAMED[args.workload],
                                                      figures):
            value = ops / seconds if sets is None else seconds / (
                sets * len(rounds))
            named[name] = {"value": value, "unit": unit}
        record["named_metrics"] = named
    record["metrics"] = metrics
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    shown = dict(record.get("named_metrics", {}), **result["metrics"])
    for name, m in shown.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
