"""Smoke runs of the example scripts and the benchmark tooling against the
package sources."""

import importlib
import importlib.util
import json
import os
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
    assert [run["exit"] for run in side["verify"]["42"]["runs"]] == [0]
    summary = record["summary"]["change"]
    assert summary["src_lines"] > 0
    for name in ("verify_s.42", "verify_calls.42", "poisson_decisions_per_s",
                 "symplectic_decisions_per_s", "cli_start_s", "import_s"):
        assert summary[name] > 0
    for width, height in bench.BUILD_ALGEBRAS:
        assert summary[f"algebra_build_s.{width},{height}"] > 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == record["summary"]


def test_bench_compares_pair_by_pair(bench):
    def side(verify, poisson):
        return {"verify": {"42": {"s": verify}}, "poisson_decisions_per_s": poisson,
                "symplectic_decisions_per_s": [1.0] * 4, "cli_start_s": [0.2] * 4,
                "import_s": verify, "algebra_build_s": {"4,4": verify}}

    compared = bench.comparison(side([1.0, 2.0, 1.0, 1.0], [3.0, 3.0, 1.0, 3.0]),
                                side([2.0, 1.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]))
    assert compared["verify_s.42"]["change_better"] == 3
    assert compared["verify_s.42"]["median_gain"] == 1.0
    assert compared["poisson_decisions_per_s"]["change_better"] == 3
    assert compared["poisson_decisions_per_s"]["parent_iqr"] == 0.0
    assert compared["algebra_build_s.4,4"] == compared["verify_s.42"]
    assert compared["import_s"] == compared["verify_s.42"]
    assert compared["cli_start_s"] == {"change_better": 0, "pairs": 4,
                                       "median_gain": 0.0, "parent_iqr": 0.0}
