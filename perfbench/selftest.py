"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py

They run the real workloads, traced and untraced, so they take a few
minutes.  The file name keeps them out of a plain `pytest` collection.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = run.load_json(ROOT / "BENCHMARK.json")
SEED_REPORTS = run.load_json(HERE / "seed_reports.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT = re.compile(r"\.(calls|madds)$|^cli\.report_bytes$")

# Layers each workload must reach; all-d6 runs every suite, so every layer.
RUNS_LAYER = {
    "idempotents-d7": ("cube.build_context.s", "cube.E.s", "cube.Estar.s",
                       "cube.Eeps.s", "cube.verify_idempotent_families.s",
                       "scalar.GaussRat.calls", "linalg.matmul.calls",
                       "linalg.rank.calls", "linalg.diagonal.s",
                       "linalg.ExactMatrix.calls", "cli.report.s"),
    "rep-matrices-d8": ("cube.build_context.s", "cube.E.s", "cube.Eeps.s",
                        "scalar.GaussRat.calls", "linalg.matvec.calls",
                        "linalg.kernel_basis.calls", "linalg.gram_schmidt.s",
                        "linalg.inner.calls", "decomposition.decompose.s",
                        "leonard.build_six_bases.s", "leonard.BasisSolver.calls",
                        "leonard.BasisSolver.coords.calls",
                        "leonard.verify_rep_matrices.s", "cli.report.s"),
    "all-d6": tuple(m["name"] for m in BENCH["per_layer"]
                    if m["name"] != "trace.overhead"),
}


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(SEED_REPORTS) == set(names)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(NAME.match(n) for n in all_names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCH["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert set(RUNS_LAYER) == set(names)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))
    outer = tr.wrap("outer", lambda: (time.sleep(0.01), inner(), inner()))
    outer()
    m = tr.metrics()
    assert m["outer.calls"] == 1 and m["inner.calls"] == 2
    (_, _, o0, o1), = [s for s in tr.spans if s[0] == "outer"]
    assert m["outer.s"] + m["inner.s"] == pytest.approx(o1 - o0)
    assert 0.01 <= m["outer.s"] < 0.02 <= m["inner.s"] / 2
    # A pause inside the outer span only (before the first inner call).
    paused = tr.metrics(pauses=[(o0, 0.004)], scale=2.0)
    assert paused["outer.s"] == pytest.approx(2 * (m["outer.s"] - 0.004))
    assert paused["inner.s"] == pytest.approx(2 * m["inner.s"])


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_build" / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _main_result(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("tamper", ["flip", "append", "truncate", "exit"])
def test_modified_report_fails_every_check(workdir, monkeypatch, tamper):
    """A report that differs from the seed digest fails the whole run, and
    `checks` counts the rows the report really holds."""
    real = run.invoke("idempotents-d7", workdir)
    assert run.judge("idempotents-d7", real, SEED_REPORTS) == (277, 0)
    if tamper == "flip":
        bad = dataclasses.replace(
            real, report=real.report.replace(b"PASS", b"FAIL", 1))
    elif tamper == "append":
        bad = dataclasses.replace(real, report=real.report + b"\n")
    elif tamper == "truncate":
        lines = real.report.splitlines(keepends=True)
        bad = dataclasses.replace(real, report=b"".join(lines[:100]))
    else:
        bad = dataclasses.replace(real, exit_code=1)
    monkeypatch.setattr(run, "invoke", lambda *a, **k: bad)
    lines = _main_result(["--workload", "idempotents-d7", "--seconds", "0"])
    result = json.loads(lines[-1])
    assert result["correct"] is False
    rows = 100 if tamper == "truncate" else 277
    assert result["attempted"] == result["failed"] == rows
    assert result["metrics"]["checks"]["value"] == rows


def test_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all-d6",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == SEED_REPORTS["all-d6"]["checks"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, workdir / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCH["command"][1:]
        + ["--workload", "all-d6", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reports_layers_and_repeats_counts(workdir, workload):
    names = [m["name"] for m in BENCH["per_layer"]]
    attempted, failed, first, _ = run.measure_traced(
        workload, 0, workdir, SEED_REPORTS, names)
    assert failed == 0 and set(first) == set(names)
    assert [n for n in RUNS_LAYER[workload] if not first[n] > 0] == []
    again = run.invoke(workload, workdir, trace=True)
    assert run.judge(workload, again, SEED_REPORTS)[1] == 0
    second = dict(again.result["trace"], **{"cli.report_bytes":
                                            len(again.report)})
    exact = [n for n in names if EXACT.search(n)]
    assert {n: first[n] for n in exact} == {n: second.get(n, 0) for n in exact}
