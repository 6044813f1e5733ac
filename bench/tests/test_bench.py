"""Tests of the benchmark itself: its checkers, its reference math, its
tracer and a tiny run of every workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=ENV, timeout=120)


def _plan(workload, ops):
    return workloads.Plan(workload, 1, tuple(ops), 1)


# -- reference math --------------------------------------------------------


@pytest.mark.parametrize("q,d,m", [(2, 3, 5), (3, 4, 3), (4, 3, 3), (5, 6, 2), (9, 5, 2), (2, 1, 4)])
def test_unranking_matches_listing_and_counts(q, d, m):
    listed = ref.listed_hierarchy(q, d, m)
    brute_k = sum(1 for w in listed)
    assert ref.dimension(q, d, m) == brute_k == ref.closed_dimension(q, d, m)
    assert [ref.weight(q, d, m, r) for r in range(1, brute_k + 1)] == listed
    assert listed[0] == ref.first_weight(q, d, m)


def test_known_hierarchy_q4_d3_m3():
    # RM_4(3, 3): k = 20, d_1 = 16 and the hierarchy ends at q^m = 64
    h = ref.listed_hierarchy(4, 3, 3)
    assert len(h) == 20 and h[0] == 16 and h[-1] == 64


# -- checkers reject planted wrong values ----------------------------------


def test_off_by_one_e_bar_is_rejected():
    op = {"q": 3, "d": 25, "m": 40, "r": 123456789}
    right = ref.weight(3, 25, 40, 123456789)
    plan = _plan("ghw-bigint", [op, op])
    assert checks.check(plan, [right, right]) == []
    problems = checks.check(plan, [right, right + 1])  # e_bar one too small
    assert len(problems) == 1 and problems[0].startswith("op 1 ")


def test_swapped_hierarchy_entries_are_rejected():
    q, d, m = 3, 3, 4
    n = m * (q - 1)
    h, dual = ref.listed_hierarchy(q, d, m), ref.listed_hierarchy(q, n - 1 - d, m)
    plan = _plan("hierarchy", [{"q": q, "d": d, "m": m}, {"q": q, "d": n - 1 - d, "m": m}])
    assert checks.check(plan, [h, dual]) == []
    swapped = list(h)
    swapped[4], swapped[5] = swapped[5], swapped[4]
    problems = checks.check(plan, [swapped, dual])
    assert any("strictly increasing" in p for p in problems)


def test_wei_duality_catches_a_wrong_dual():
    q, m = 2, 4
    op = {"q": q, "d": 1, "m": m}
    h, dual = ref.listed_hierarchy(q, 1, m), ref.listed_hierarchy(q, 2, m)
    assert checks.wei_duality(op, h, dual) == []
    assert checks.wei_duality(op, h, ref.listed_hierarchy(q, 1, m)) != []


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_fail_output_is_rejected(fmt):
    op = workloads._verify_op("lex", 4, 3, 3, fmt)
    failing = {
        "plain": "MISMATCH r=2: e_bar=20 oracle=21\nFAIL (1 mismatches / 20 ranks)\n",
        "json": json.dumps({"oracle": "lex", "status": "fail", "checked": 20,
                            "mismatches": [{"r": 2, "e_bar": "20", "oracle": "21"}]}),
        "csv": "r,e_bar,oracle,match\n1,48,48,true\n2,20,21,false\n",
    }[fmt]
    plan = _plan("verify-oracle", [op])
    assert checks.check(plan, [{"rc": 1, "out": failing}]) != []
    assert checks.check(plan, [{"rc": 0, "out": failing}]) != []


def test_verify_pass_with_wrong_rank_count_is_rejected():
    op = workloads._verify_op("lex", 4, 3, 3, "plain")
    plan = _plan("verify-oracle", [op])
    assert checks.check(plan, [{"rc": 0, "out": "PASS (20 ranks checked)\n"}]) == []
    assert checks.check(plan, [{"rc": 0, "out": "PASS (19 ranks checked)\n"}]) != []


def test_a_failed_op_is_not_checked():
    op = {"q": 3, "d": 25, "m": 40, "r": 5}
    assert checks.check(_plan("ghw-bigint", [op]), [None]) == []


# -- plans -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_seeded_and_whole_rounds(workload):
    a = workloads.build(workload, 7, 10)
    assert a == workloads.build(workload, 7, 10)
    assert a.ops != workloads.build(workload, 8, 10).ops
    assert len(a.ops) % a.rounds == 0 and len(a.ops) >= 100


def test_ghw_queries_are_fresh_large_codes():
    plan = workloads.build("ghw-bigint", 3, 10)
    codes = [(op["q"], op["d"], op["m"]) for op in plan.ops]
    assert len(set(codes)) == len(codes)
    assert any(d < q for q, d, _ in codes) and any(d > q for q, d, _ in codes)
    assert all(10**10 <= ref.closed_dimension(*c) <= 10**71 for c in codes)


# -- tracer ----------------------------------------------------------------


def test_tracer_rebinds_imported_names():
    code = (
        "import tracer\n"
        "from rmweights import cli, dims, macaulay, weights\n"
        "from rmweights.dims import CodeParams\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "assert macaulay.rho is dims.rho and hasattr(dims.rho, '__wrapped__')\n"
        "assert weights.decompose is macaulay.decompose and cli.decompose is macaulay.decompose\n"
        "assert not hasattr(dims.binomial, '__wrapped__')\n"
        "weights.hierarchy(CodeParams(2, 2, 4))\n"
        "s = t.spans\n"
        "assert s['weights.hierarchy'][0] == 1 and s['macaulay.decompose'][0] == 11\n"
        "assert t.counts['ranks'] == 11 and s['dims.rho'][0] > 11\n"
    )
    proc = _run("-c", code, cwd=BENCH)
    assert proc.returncode == 0, proc.stderr


def test_timed_worker_installs_no_wrappers(tmp_path):
    plan = workloads.build("hierarchy", 1, 0.01)
    (tmp_path / "plan.json").write_text(json.dumps(dataclasses.asdict(plan)))
    code = (
        "import sys, worker\n"
        f"worker.main(['--workdir', {str(tmp_path)!r}])\n"
        "from rmweights import dims\n"
        "assert 'tracer' not in sys.modules and not hasattr(dims.rho, '__wrapped__')\n"
    )
    proc = _run("-c", code, cwd=BENCH)
    assert proc.returncode == 0, proc.stderr


# -- whole runs ------------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload(workload):
    res = _result(_run("bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "0"))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 9
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"] and res["metrics"][m["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_layer():
    res = _result(_run("bench/run.py", "--workload", "verify-oracle", "--seed", "1", "--seconds", "0.01", "--trace", "1"))
    assert res["correct"] is True and res["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert res["metrics"]["oracle.e_bar_lex.calls"]["value"] > 0
    assert res["metrics"]["oracle.subspaces"]["value"] > 0


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hierarchy", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
