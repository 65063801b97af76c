"""Smoke runs of the example scripts and the benchmark tooling against the
package sources."""

import importlib
import importlib.util
import json
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_public_names_resolve():
    for name in ("weiljet", "weiljet.jsonio", "weiljet.sampling", "weiljet.harness"):
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_benchmark_tracer_installs_against_the_sources():
    # traced benchmark runs wrap library functions by name, so a deleted or
    # renamed name fails here rather than in the benchmark
    result = run_script("-c", "import sys; sys.path.insert(0, 'perfbench'); "
                        "from layers import Tracer, install; install(Tracer()); "
                        "import weiljet.poisson as p; "
                        "print(p.poisson_derivation.__name__)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "traced"


TRACED_DECISIONS = """
import json, sys
from collections import Counter
sys.path.insert(0, "perfbench")
from layers import Tracer, install
tracer = Tracer()
install(tracer)
from weiljet import cli
for flag in ("--poisson", "--symplectic"):
    code = cli.main(["hamcheck", "--algebra", "dual", flag, "canonical:2",
                     "--field", '["-x0","x1"]', "--witness", "x0*x1", "--samples", "4"])
    assert code == 0, code
print(json.dumps(Counter(tracer.names[i] for i in tracer.name)))
"""


def test_benchmark_traces_every_hamiltonian_decision():
    # the per-layer decision metrics read these spans, so a verdict routed
    # around the traced names fails here rather than reading 0 in the benchmark
    result = run_script("-c", TRACED_DECISIONS)
    assert result.returncode == 0, result.stderr
    spans = json.loads(result.stdout.splitlines()[-1])
    for name in ("poisson.closedness", "poisson.witness",
                 "symplectic.closedness", "symplectic.witness"):
        assert spans.get(name, 0) >= 1, name


JETS_ROUND = """
import sys
sys.path.insert(0, "perfbench")
import reference, workloads
inputs, expect = reference.jets_inputs(1)
inputs = {family: ops[:2] for family, ops in inputs.items()}
expect = {family: jets[:2] for family, jets in expect.items()}
_, outputs, ops = workloads.Jets(inputs).run_round()
print(ops, reference.check("jets", inputs, expect, outputs))
"""


def test_benchmark_jets_round_runs_against_the_sources():
    # the jets workload builds its near-points through the public
    # constructor, so a change to what it calls fails here rather than in
    # the benchmark
    result = run_script("-c", JETS_ROUND)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "4 ([], 0)"


def test_demo_runs():
    result = run_script("scripts/demo.py")
    assert result.returncode == 0, result.stderr


@pytest.fixture
def bench(monkeypatch):
    """scripts/bench.py loaded as a module.  The perfbench modules it imports
    are dropped afterwards and sys.path is restored."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench",
                                                  ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    perfbench = str(ROOT / "perfbench")
    for name in set(sys.modules) - before:
        if (getattr(sys.modules[name], "__file__", None) or "").startswith(perfbench):
            del sys.modules[name]


def test_bench_writes_its_record(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "SEEDS", (42,))
    out = tmp_path / "BENCH_smoke.json"
    assert bench.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record["machine"]) == {"nproc", "python", "numpy", "blas_threads"}
    assert "comparison" not in record
    (side,) = record["sides"].values()
    assert len(side["commit"]) == 40
    assert side["import_modules"] == ["weiljet.algebra", "weiljet.bundle", "weiljet.cli",
                                      "weiljet.errors", "weiljet.expression"]
    assert isinstance(side["dont_write_bytecode"], bool)
    assert set(side["bytecode_cache"]) == set(side["module_lines"])
    assert set(side["bytecode_cache"].values()) <= {"absent", "fresh", "stale"}
    assert [run["exit"] for run in side["verify"]["42"]["runs"]] == [0]
    summary = record["summary"]["change"]
    assert summary["src_lines"] == sum(count for name, count in summary.items()
                                       if name.startswith("src_lines.")) > 0
    assert summary["src_lines.weiljet/bundle.py"] > 0
    for name in ("verify_s.42", "verify_calls.42", "poisson_decisions_per_s",
                 "symplectic_decisions_per_s", "cli_start_s", "import_s",
                 "symbolic_build_s", "mutation_sweep_s"):
        assert summary[name] > 0
    for width, height in bench.BUILD_ALGEBRAS:
        assert summary[f"algebra_build_s.{width},{height}"] > 0
    for width, height in bench.CAP_ALGEBRAS:
        assert summary[f"cap_build_s.{width},{height}"] > 0
        assert summary[f"cap_build_peak_mb.{width},{height}"] > 0
    assert len([name for name in summary
                if name.startswith("matrix_inverse_s.")]) == len(bench.SOLVES)
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == record["summary"]


def test_bench_counts_lines_per_module(bench, tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not a module\n")
    assert bench.module_lines(tmp_path) == {"pkg/a.py": 2, "pkg/b.py": 1}
    assert bench.src_lines(tmp_path) == 3


def test_bench_records_each_modules_bytecode_cache(bench, tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    sources = {name: package / f"{name}.py" for name in
               ("absent", "fresh", "stale", "hashed", "stale_hashed")}
    for name, path in sources.items():
        path.write_text(f"name = {name!r}\n")
        if name != "absent":
            mode = (py_compile.PycInvalidationMode.CHECKED_HASH if "hashed" in name
                    else py_compile.PycInvalidationMode.TIMESTAMP)
            py_compile.compile(str(path), doraise=True, invalidation_mode=mode)
    # an edit that keeps the size and the modification time is seen only by
    # the hash; one that changes the size by both checks
    sources["stale"].write_text("name = 'stale, edited'\n")
    stat = sources["stale_hashed"].stat()
    sources["stale_hashed"].write_text("name = 'STALE_HASHED'\n")
    os.utime(sources["stale_hashed"], ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert bench.bytecode_caches(tmp_path) == {
        "pkg/absent.py": "absent", "pkg/fresh.py": "fresh", "pkg/hashed.py": "fresh",
        "pkg/stale.py": "stale", "pkg/stale_hashed.py": "stale"}


def test_bench_compares_pair_by_pair(bench):
    def side(verify, poisson):
        return {"verify": {"42": {"s": verify}}, "poisson_decisions_per_s": poisson,
                "symplectic_decisions_per_s": [1.0] * 4, "cli_start_s": [0.2] * 4,
                "import_s": verify, "symbolic_build_s": verify,
                "mutation_sweep_s": verify, "algebra_build_s": {"4,4": verify},
                "layers": {"cap_build_s.1,511": verify}}

    compared = bench.comparison(side([1.0, 2.0, 1.0, 1.0], [3.0, 3.0, 1.0, 3.0]),
                                side([2.0, 1.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]))
    assert compared["verify_s.42"]["change_better"] == 3
    assert compared["verify_s.42"]["median_gain"] == 1.0
    assert compared["poisson_decisions_per_s"]["change_better"] == 3
    assert compared["poisson_decisions_per_s"]["parent_iqr"] == 0.0
    assert compared["algebra_build_s.4,4"] == compared["verify_s.42"]
    assert compared["import_s"] == compared["verify_s.42"]
    assert compared["symbolic_build_s"] == compared["verify_s.42"]
    assert compared["mutation_sweep_s"] == compared["verify_s.42"]
    assert compared["cap_build_s.1,511"] == compared["verify_s.42"]
    assert compared["cli_start_s"] == {"change_better": 0, "pairs": 4,
                                       "median_gain": 0.0, "parent_iqr": 0.0}


def test_bench_counts_a_sweep_caught_only_by_its_failing_target(bench):
    def sweep(code, passed):
        report = json.dumps({"name": "t", "passed": passed})
        return {"mutation": "m", "target": "t", "code": code,
                "out": json.dumps({"name": "other", "passed": False}) + "\n" + report}

    assert bench.uncaught([sweep(5, False)]) == []
    assert bench.uncaught([sweep(5, True), sweep(0, False)]) == ["m on t", "m on t"]
