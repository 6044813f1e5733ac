import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmweights
from rmweights import macaulay, oracle, weights
from rmweights.cli import main
from rmweights.dims import is_prime_power


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_plain(capsys):
    code, out, err = run(capsys, "dim", "--q", "2", "--d", "3", "--m", "5")
    assert (code, out, err) == (0, "26\n", "")


def test_dim_json(capsys):
    code, out, _ = run(capsys, "dim", "--q", "2", "--d", "3", "--m", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"params": {"q": 2, "d": 3, "m": 5}, "rho": "26"}


def test_dim_csv(capsys):
    code, out, _ = run(capsys, "dim", "--q", "4", "--d", "3", "--m", "3", "--format", "csv")
    assert code == 0
    assert out == "q,d,m,rho\n4,3,3,20\n"


def test_dim_validation_errors(capsys):
    code, out, err = run(capsys, "dim", "--q", "6", "--d", "1", "--m", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: q must be a prime power")
    code, _, err = run(capsys, "dim", "--q", "2", "--d", "0", "--m", "2")
    assert code == 2
    assert err.startswith("error:")


def test_macaulay_plain(capsys):
    code, out, _ = run(capsys, "macaulay", "--n", "12", "--d", "3", "--q", "4")
    assert (code, out) == (0, "(2, 0, 0)\n")
    code, out, _ = run(capsys, "macaulay", "--n", "16", "--d", "3", "--q", "2")
    assert (code, out) == (0, "(4, 0, -1)\n")
    code, out, _ = run(capsys, "macaulay", "--n", "16", "--d", "3", "--q", "inf")
    assert (code, out) == (0, "(2, 2, -1)\n")


def test_macaulay_json(capsys):
    code, out, _ = run(
        capsys, "macaulay", "--n", "12", "--d", "3", "--q", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "q": 4,
        "d": 3,
        "coeffs": [2, 0, 0],
        "terms": ["10", "1", "1"],
        "sum": "12",
        "n": "12",
    }
    code, out, _ = run(
        capsys, "macaulay", "--n", "5", "--d", "2", "--q", "infinity", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["q"] == "inf"


def test_macaulay_csv(capsys):
    code, out, _ = run(
        capsys, "macaulay", "--n", "12", "--d", "3", "--q", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "degree,coefficient,term\n3,2,10\n2,0,1\n1,0,1\n"


def test_macaulay_bad_q(capsys):
    code, _, err = run(capsys, "macaulay", "--n", "5", "--d", "2", "--q", "six")
    assert code == 2
    assert "q must be an integer or 'inf'" in err


def test_ghw_plain(capsys):
    code, out, _ = run(capsys, "ghw", "--q", "4", "--d", "3", "--m", "3", "--r", "8")
    assert (code, out) == (0, "d_r = 46 (e_bar = 18)\n")


def test_ghw_json(capsys):
    code, out, _ = run(
        capsys, "ghw", "--q", "2", "--d", "3", "--m", "5", "--r", "10", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "params": {"q": 2, "d": 3, "m": 5},
        "r": 10,
        "e_bar": "17",
        "d_r": "15",
    }


def test_ghw_rank_out_of_range(capsys):
    code, _, err = run(capsys, "ghw", "--q", "2", "--d", "3", "--m", "5", "--r", "27")
    assert code == 2
    assert err == "error: r must be in [1, 26]\n"


def test_hierarchy_formats(capsys):
    code, out, _ = run(capsys, "hierarchy", "--q", "2", "--d", "1", "--m", "3")
    assert (code, out) == (0, "4 6 7 8\n")
    code, out, _ = run(
        capsys, "hierarchy", "--q", "2", "--d", "1", "--m", "3", "--format", "csv"
    )
    assert out == "r,d_r\n1,4\n2,6\n3,7\n4,8\n"
    code, out, _ = run(
        capsys, "hierarchy", "--q", "2", "--d", "2", "--m", "3", "--format", "json"
    )
    assert json.loads(out) == {
        "params": {"q": 2, "d": 2, "m": 3},
        "rho": "7",
        "weights": ["2", "3", "4", "5", "6", "7", "8"],
    }


def test_table_ranges(capsys):
    code, out, _ = run(capsys, "table", "--q", "2..3", "--m", "1..2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,d,m,r,d_r"
    assert "2,1,1,1,1" in lines
    assert "2,1,1,2,2" in lines
    assert "3,2,1,1,1" in lines
    # every d up to m(q-1) appears for each included (q, m)
    assert any(line.startswith("3,4,2,") for line in lines)


def test_table_skips_non_prime_powers(capsys):
    code, out, _ = run(capsys, "table", "--q", "6", "--m", "1")
    assert code == 0
    assert out == "q,d,m,r,d_r\n"


def test_table_d_filter(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "3", "--d", "2")
    lines = out.splitlines()
    assert len(lines) == 1 + 7  # header plus one row per rank of RM_2(2, 3)
    assert all(line.split(",")[1] == "2" for line in lines[1:])


def test_table_clips_wide_ranges_to_the_codes_that_exist(capsys):
    # each range is clipped to m >= 1 and 1 <= d <= m(q-1), not walked;
    # a negative bound needs the --m=LO..HI form, as argparse reads -5 as an option
    argv = ("table", "--q", "2..3", "--m=-5..3", "--d=-1000000000000..1000000000000")
    proc = _run_python("-m", "rmweights.cli", *argv, timeout=20)
    code, out, _ = run(capsys, "table", "--q", "2..3", "--m", "1..3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_ghw_answers_a_big_binary_query_in_seconds():
    # about 1,100 probes of rho_2 at degrees up to 1000 over m = 2000 bits:
    # under 1 s by the partial binomial sum, about 16 s by the alternating
    # sum that serves q > 2.  e_bar has 939 ones on top, then 1,061 bits:
    low = int(
        "4000000000000000005002000400000000004800c000004004000060080100"
        "0420000004400000000000010000000000208004000002008041000090800001"
        "0000000240080040000008000000000000000000028080020000000008000002"
        "0000000406004001000000040010680020010000000000410000080020008000"
        "400800", 16)
    e_bar = (1 << 2000) - (1 << 1061) + low
    argv = ("ghw", "--q", "2", "--d", "1000", "--m", "2000", "--r", str(10**100))
    proc = _run_python("-m", "rmweights.cli", *argv, timeout=10)
    expected = f"d_r = {2**2000 - e_bar} (e_bar = {e_bar})\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
    assert hashlib.sha256(expected.encode()).hexdigest() == _console_digest("GHW")


def test_hierarchy_prints_a_full_length_scan_byte_for_byte(capsys):
    # q^m = 4^8 = 2^16, the longest code the scan takes (k = 36,814); its
    # bytes are read off the walk, a route that shares no code with the
    # scan, and their sha256 is the one that ci/console.sh checks
    expected = " ".join(map(str, weights._walk(4, 12, 8))) + "\n"
    assert hashlib.sha256(expected.encode()).hexdigest() == _console_digest("HIERARCHY")
    assert run(capsys, "hierarchy", "--q", "4", "--d", "12", "--m", "8") == (0, expected, "")


def test_table_leaves_the_prime_power_cache_bounded(capsys):
    code, out, _ = run(capsys, "table", "--q", "2..5000", "--m", "0")
    assert (code, out) == (0, "q,d,m,r,d_r\n")
    info = is_prime_power.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_table_rejects_empty_range(capsys):
    code, _, err = run(capsys, "table", "--q", "3..2", "--m", "1")
    assert code == 2
    assert "empty range" in err
    for bad in ("2..x", "2.."):
        code, out, err = run(capsys, "table", "--q", bad, "--m", "1")
        assert (code, out) == (2, "")
        assert err == f"error: bad range '{bad}'; expected N or LO..HI\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--q", "4294967311..4294967312", "--m", "1"),
        ("dim", "--q", "4294967311", "--d", "1", "--m", "1"),
    ],
)
def test_q_beyond_the_prime_power_test_is_rejected_before_any_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: prime-power test only supported for q <= 2**32\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "hierarchy.json"
    code, out, _ = run(
        capsys,
        "hierarchy", "--q", "2", "--d", "1", "--m", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["weights"] == ["4", "6", "7", "8"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--q", "6", "--d", "1", "--m", "2"],
        ["table", "--q", "2..x", "--m", "2"],
        ["verify", "--q", "2", "--d", "1", "--m", "3", "--oracle", "lex", "--cap", "3"],
    ],
    ids=["dim", "table", "verify"],
)
def test_failing_command_leaves_out_file_as_it_was(tmp_path, capsys, argv):
    target = tmp_path / "previous.txt"
    target.write_text("earlier output\n")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert target.read_text() == "earlier output\n"


def test_out_failure_is_reported(capsys):
    code, _, err = run(
        capsys, "dim", "--q", "2", "--d", "1", "--m", "1", "--out", "/nonexistent/x"
    )
    assert code == 2
    assert err.startswith("error:")


def test_table_out_writes_the_bytes_it_prints(tmp_path, capsys):
    argv = ("table", "--q", "2..3", "--m", "1..2")
    printed = run(capsys, *argv)
    target = tmp_path / "table.csv"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert (0, target.read_text(), "") == printed


def _break_the_greedy_at_rank_1(monkeypatch):
    greedy = weights.e_bars
    monkeypatch.setattr(weights, "e_bars", lambda p: (e + (r == 1) for r, e in enumerate(greedy(p), 1)))


def test_failing_verify_writes_its_report_to_out(tmp_path, capsys, monkeypatch):
    _break_the_greedy_at_rank_1(monkeypatch)
    target = tmp_path / "report.txt"
    argv = ("verify", "--q", "2", "--d", "1", "--m", "2", "--oracle", "lex")
    assert run(capsys, *argv, "--out", str(target)) == (1, "", "")
    assert target.read_text() == "MISMATCH r=1: e_bar=3 walk=2 oracle=2\nFAIL (1 mismatches / 3 ranks)\n"
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "report.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "2", "--d", "3", "--m", "5", "--oracle", "lex"),
    ("verify", "--q", "2", "--d", "2", "--m", "4", "--oracle", "exhaustive"),
])
def test_verify_catches_a_broken_bounded_probe(capsys, monkeypatch, argv):
    # lex and exhaustive both run the bounded probe of `decompose`, so a
    # probe that misses a summand it should fit trips the greedy's sum
    # check, which ends as a failed check with exit 1, not a traceback
    probe = macaulay._rho_upto

    def broken(q, i, m, bound):
        return None if (i, m) == (2, 3) and bound != float("inf") else probe(q, i, m, bound)

    monkeypatch.setattr(macaulay, "_rho_upto", broken)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "PASS" not in out
    assert err.startswith("error: internal check failed:")


def test_verify_lex(capsys):
    code, out, _ = run(
        capsys, "verify", "--q", "4", "--d", "3", "--m", "3", "--oracle", "lex"
    )
    assert (code, out) == (0, "PASS (20 ranks checked)\n")


def test_verify_lex_csv(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--q", "2", "--d", "1", "--m", "2", "--oracle", "lex",
        "--format", "csv",
    )
    assert code == 0
    assert out == "r,e_bar,oracle,match\n1,2,2,true\n2,1,1,true\n3,0,0,true\n"


def test_verify_exhaustive_single_rank(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--q", "2", "--d", "1", "--m", "3", "--oracle", "exhaustive",
        "--r", "2",
    )
    assert (code, out) == (0, "PASS d_2 = 6\n")


def test_verify_exhaustive_all_ranks(capsys):
    code, out, _ = run(
        capsys, "verify", "--q", "2", "--d", "1", "--m", "2", "--oracle", "exhaustive"
    )
    assert code == 0
    assert out == "PASS d_1 = 2\nPASS d_2 = 3\nPASS d_3 = 4\n"


def test_verify_exhaustive_cap_too_small(capsys):
    code, _, err = run(
        capsys,
        "verify", "--q", "2", "--d", "3", "--m", "5", "--oracle", "exhaustive",
        "--cap", "0",
    )
    assert code == 2
    assert "no rank fits" in err
    # the top rank always has exactly one subspace, so a small positive
    # cap still verifies it rather than erroring out
    code, out, _ = run(
        capsys,
        "verify", "--q", "2", "--d", "3", "--m", "5", "--oracle", "exhaustive",
        "--cap", "10",
    )
    assert (code, out) == (0, "PASS d_26 = 32\n")


@pytest.mark.parametrize("oracle_name", ["lex", "exhaustive", "dims"])
def test_verify_rejects_a_negative_cap_before_any_oracle_runs(capsys, monkeypatch, oracle_name):
    for name in ("e_bar_lex_column", "check_matrix_caps", "ranks_under_cap",
                 "min_subspace_support", "count_reduced_monomials"):
        monkeypatch.setattr(oracle, name, lambda *args, **kwargs: pytest.fail("an oracle ran"))
    code, out, err = run(
        capsys, "verify", "--q", "2", "--d", "1", "--m", "3", "--oracle", oracle_name, "--cap", "-5"
    )
    assert (code, out, err) == (2, "", "error: --cap must be >= 0\n")


@pytest.mark.parametrize("oracle_name", ["lex", "dims"])
def test_verify_rejects_a_rank_outside_the_exhaustive_oracle(capsys, oracle_name):
    code, out, err = run(
        capsys, "verify", "--q", "2", "--d", "1", "--m", "3", "--oracle", oracle_name, "--r", "3"
    )
    assert (code, out) == (2, "")
    assert err == f"error: --r applies only to --oracle exhaustive, not --oracle {oracle_name}\n"


def test_verify_dims(capsys):
    code, out, _ = run(
        capsys, "verify", "--q", "2", "--d", "2", "--m", "3", "--oracle", "dims"
    )
    assert (code, out) == (0, "PASS rho = 7 by 3 methods\n")
    code, out, _ = run(
        capsys, "verify", "--q", "5", "--d", "2", "--m", "2", "--oracle", "dims"
    )
    assert (code, out) == (0, "PASS rho = 6 by 4 methods\n")


def test_verify_dims_large_m_exits_on_the_cap(capsys):
    code, out, err = run(
        capsys, "verify", "--q", "2", "--d", "3", "--m", "330", "--oracle", "dims"
    )
    assert (code, out) == (2, "")
    assert err == f"error: q^m = {2**330} exceeds the enumeration cap {10**8}\n"


def test_verify_exhaustive_names_an_oversized_subspace_count(capsys):
    # 2^20001 - 1 subspaces has more digits than int -> str allows by default
    code, out, err = run(
        capsys, "verify", "--q", "2", "--d", "1", "--m", "20000", "--oracle", "exhaustive", "--r", "1"
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: [20001, 1]_2 subspaces exceeds the cap {10**7};")


def test_verify_exhaustive_checks_the_matrix_caps_before_its_rank_scan():
    # the caps are checked before a rank scan over about 1.2e9 ranks
    argv = ("--q", "2", "--d", "10", "--m", "40", "--oracle", "exhaustive")
    proc = _run_python("-m", "rmweights.cli", "verify", *argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: q^m = {2**40} exceeds the column cap {10**6}\n"


def test_verify_exhaustive_rejects_a_matrix_past_the_cell_cap():
    # 5,036 x 524,288 passes the column cap; its top rank is one subspace
    argv = ("--q", "2", "--d", "4", "--m", "19", "--oracle", "exhaustive", "--r", "5036")
    proc = _run_python("-m", "rmweights.cli", "verify", *argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: 5036 x 524288 = {5036 * 524288} matrix cells exceed the cell cap {10**8}\n"
    )


def test_verify_exhaustive_scans_only_the_ranks_under_the_cap():
    # k = 2,380: only the top rank fits, and no middle count is computed
    argv = ("--q", "2", "--d", "5", "--m", "13", "--oracle", "exhaustive")
    proc = _run_python("-m", "rmweights.cli", "verify", *argv, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "PASS d_2380 = 8192\n", "")


def test_verify_exhaustive_names_a_mid_rank_count_without_computing_it():
    # [5036, 2518]_2 >= 2^(2518^2) has far more digits than int -> str
    # allows by default; with no limit (0) it is still named, not computed
    argv = ("--q", "2", "--d", "4", "--m", "19", "--oracle", "exhaustive", "--r", "2518")
    for env in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}):
        proc = _run_python("-m", "rmweights.cli", "verify", *argv, timeout=10, **env)
        assert (proc.returncode, proc.stdout) == (2, ""), env
        assert proc.stderr == (
            f"error: [5036, 2518]_2 subspaces exceeds the cap {10**7};"
            " use the lexicographic oracle for these parameters\n"
        ), env


def test_verify_dims_rejects_an_oversized_code_before_the_closed_forms():
    # the closed forms of this code take minutes; the cap check takes none
    argv = ("--q", "2", "--d", "1000", "--m", "100000", "--oracle", "dims")
    proc = _run_python("-m", "rmweights.cli", "verify", *argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: q^m = 2^100000 exceeds the enumeration cap {10**8}\n"


# the CLI in a child whose address space is capped at the bytes given
# as its first argument; under 1 GB 2^(10^10), a 1.25 GB integer, cannot
# be built
_MAIN_UNDER = """
import resource, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from rmweights.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, message", [
    (
        "verify --q 2 --d 1 --m 10000000000 --oracle dims",
        f"q^m = 2^10000000000 exceeds the enumeration cap {10**8}",
    ),
    (
        "verify --q 2 --d 1 --m 10000000000 --oracle exhaustive",
        f"q^m = 2^10000000000 exceeds the column cap {10**6}",
    ),
    (
        "verify --q 2 --d 1 --m 10000000000 --oracle exhaustive --r 1",
        f"[10000000001, 1]_2 subspaces exceeds the cap {10**7};"
        " use the lexicographic oracle for these parameters",
    ),
    (
        "macaulay --n 5 --d 100000000000 --q 2",
        f"d = 100000000000 exceeds the degree cap {macaulay.MAX_DEGREE}",
    ),
])
def test_oversized_inputs_exit_on_a_cap_before_q_m_or_d_is_built(argv, message):
    proc = _run_python("-c", _MAIN_UNDER, str(10**9), *argv.split(), timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    "dim --q 2 --d 10000000000 --m 10000000000",  # rho = q^m
    "ghw --q 2 --d 1 --m 10000000000 --r 1",  # e_bar sums 2^(m-1)
])
def test_a_result_too_big_for_memory_exits_2(argv):
    proc = _run_python("-c", _MAIN_UNDER, str(250 * 10**6), *argv.split(), timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_macaulay_caps_d_before_the_greedy(capsys, monkeypatch):
    monkeypatch.setattr(macaulay, "MAX_DEGREE", 3)
    assert run(capsys, "macaulay", "--n", "5", "--d", "3", "--q", "2") == (0, "(2, 0, -1)\n", "")
    monkeypatch.setattr(macaulay, "_decompose", lambda *args: pytest.fail("decomposed"))
    code, out, err = run(capsys, "macaulay", "--n", "5", "--d", "4", "--q", "2")
    assert (code, out, err) == (2, "", "error: d = 4 exceeds the degree cap 3\n")


def test_verify_lex_lists_the_tuples_once(capsys, monkeypatch):
    calls = []
    listing = oracle.e_bar_lex_column
    monkeypatch.setattr(oracle, "e_bar_lex_column", lambda *args: calls.append(args) or listing(*args))
    code, out, _ = run(
        capsys, "verify", "--q", "3", "--d", "2", "--m", "3", "--oracle", "lex"
    )
    assert (code, out) == (0, "PASS (10 ranks checked)\n")
    assert len(calls) == 1


def test_verify_lex_rejects_a_short_listing(capsys, monkeypatch):
    listing = oracle.e_bar_lex_column
    monkeypatch.setattr(oracle, "e_bar_lex_column", lambda *args: listing(*args)[:-1])
    code, out, err = run(
        capsys, "verify", "--q", "2", "--d", "1", "--m", "2", "--oracle", "lex"
    )
    assert (code, out) == (2, "")
    assert err == "error: the lex oracle lists 2 tuples, not rho = 3\n"


def test_a_fault_in_the_shared_listing_fails_both_oracles(capsys, monkeypatch):
    # the count and the lex column read one listing: a budget one too high
    # there must fail each, not pass one of them
    listing = oracle._listing
    monkeypatch.setattr(oracle, "_listing", lambda q, d, m, cap: listing(q, d + 1, m, cap))
    argv = ("verify", "--q", "2", "--d", "3", "--m", "5", "--oracle")
    code, out, err = run(capsys, *argv, "dims")
    assert (code, err) == (1, "")
    assert out == "formula = 26\nrecursion = 26\nenumeration = 31\nFAIL (methods disagree)\n"
    code, out, err = run(capsys, *argv, "lex")
    assert (code, out, err) == (2, "", "error: the lex oracle lists 31 tuples, not rho = 26\n")


@pytest.mark.parametrize("name, values, message", [
    ("e_bars", lambda h: h[:-1], "the greedy gives 2 values"),
    ("e_bars", lambda h: [*h, h[-1]], "the greedy gives 4 values"),
    ("e_bars", lambda h: [], "the greedy gives 0 values"),
    ("hierarchy", lambda h: h[1:], "the walk gives 2 values"),
], ids=["greedy-short", "greedy-long", "greedy-empty", "walk-short"])
def test_verify_lex_rejects_a_column_of_the_wrong_length(capsys, monkeypatch, name, values, message):
    column = getattr(weights, name)
    monkeypatch.setattr(weights, name, lambda p: iter(values(list(column(p)))))
    code, out, err = run(capsys, "verify", "--q", "2", "--d", "1", "--m", "2", "--oracle", "lex")
    assert (code, out) == (2, "")
    assert err == f"error: {message}, not rho = 3\n"


def test_verify_lex_names_the_walk_where_the_greedy_alone_is_wrong(capsys, monkeypatch):
    _break_the_greedy_at_rank_1(monkeypatch)
    code, out, _ = run(capsys, "verify", "--q", "2", "--d", "1", "--m", "2", "--oracle", "lex")
    assert (code, out) == (1, "MISMATCH r=1: e_bar=3 walk=2 oracle=2\nFAIL (1 mismatches / 3 ranks)\n")


SRC = Path(rmweights.__file__).parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


CONSOLE_SCRIPT = Path(__file__).parent.parent / "ci" / "console.sh"


def _run_python(*args, timeout=60, **env):
    """Run a fresh interpreter on `args` that imports this checkout's
    rmweights, with the environment variables `env` set on top.  Its
    int -> str digit limit is Python's default, whatever the caller's
    environment, unless `env` sets PYTHONINTMAXSTRDIGITS."""
    return _run_checkout([sys.executable, *args], timeout, env)


def _run_checkout(argv, timeout, env):
    """`_run_python` for any command line `argv`."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(path),
        "PYTHONINTMAXSTRDIGITS": str(oracle._DEFAULT_DIGIT_LIMIT),
        **env,
    }
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)


def _console_digest(name):
    """The sha256 that ci/console.sh checks an output against, as its
    NAME_SHA256 line sets it: each digest is pinned there alone."""
    found = re.findall(rf"^{name}_SHA256=([0-9a-f]{{64}})$", CONSOLE_SCRIPT.read_text(), re.M)
    assert len(found) == 1, (name, found)
    return found[0]


def test_the_ci_console_script_passes():
    # every check of CI's console-script step, run through this checkout's
    # `python -m rmweights.cli` in place of an installed `rmweights`
    rmweights_cmd = f"{sys.executable} -m rmweights.cli"
    proc = _run_checkout(["bash", str(CONSOLE_SCRIPT)], 120, {"RMWEIGHTS": rmweights_cmd})
    assert proc.returncode == 0, proc.stderr


def test_hierarchy_and_table_refuse_weights_past_the_cap_in_bits(capsys):
    # 40,001 weights of 40,001 bits pass the count but not the bits
    message = (
        f"error: 40001 weights of at least 40001 bits exceed the hierarchy cap of"
        f" {weights.MAX_WEIGHTS} 64-bit weights; use ghw for single ranks\n"
    )
    for cmd in ("hierarchy", "table"):
        assert run(capsys, cmd, "--q", "2", "--d", "1", "--m", "40000") == (2, "", message)


def test_hierarchy_cap_names_a_dimension_too_long_for_decimal():
    # k = 2^15000 has 4,516 digits, past the default limit; at d = m(q-1)
    # rho is q^m with no sum, so the cap check comes at once
    argv = ("--q", "2", "--d", "15000", "--m", "15000")
    proc = _run_python("-m", "rmweights.cli", "hierarchy", *argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: rho_2(15000, 15000) weights exceed the hierarchy cap {weights.MAX_WEIGHTS};"
        " use ghw for single ranks\n"
    )


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the caller's limit restored after the test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


GHW_PAST_THE_LIMIT = ("ghw", "--q", "2", "--d", "1", "--m", "20000", "--r", "1")


def test_results_print_in_full_past_the_digit_limit(capsys, digit_limit):
    # d_1 = e_bar(1) = 2^19999 for RM(1, 20000) over F_2: 6,021 digits
    digit_limit(0)
    half, full = str(2**19999), str(2**20000)
    digit_limit(oracle._DEFAULT_DIGIT_LIMIT)
    argv = (*GHW_PAST_THE_LIMIT, "--format")
    assert run(capsys, *argv, "plain") == (0, f"d_r = {half} (e_bar = {half})\n", "")
    code, out, err = run(capsys, *argv, "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "params": {"q": 2, "d": 1, "m": 20000}, "r": 1, "e_bar": half, "d_r": half,
    }
    assert run(capsys, *argv, "csv") == (0, f"q,d,m,r,e_bar,d_r\n2,1,20000,1,{half},{half}\n", "")
    assert run(capsys, "dim", "--q", "2", "--d", "20000", "--m", "20000") == (0, f"{full}\n", "")


def test_main_restores_the_callers_digit_limit(capsys, tmp_path, digit_limit):
    digit_limit(5000)
    assert run(capsys, *GHW_PAST_THE_LIMIT)[0] == 0
    assert sys.get_int_max_str_digits() == 5000
    # a file that cannot be opened fails inside the output step
    code, out, err = run(capsys, *GHW_PAST_THE_LIMIT, "--out", str(tmp_path / "no" / "file"))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert sys.get_int_max_str_digits() == 5000
    assert run(capsys, "ghw", "--q", "2", "--d", "1", "--m", "3", "--r", "5")[0] == 2
    assert sys.get_int_max_str_digits() == 5000


def test_arguments_are_read_in_full_past_the_digit_limit(capsys, digit_limit):
    digit_limit(0)  # to write the arguments and the expected outputs
    n, r = 10**4400, 2**15000 - 5
    n_arg, r_arg = str(n), str(r)
    macaulay_out, ghw_out = f"({n - 1})\n", f"d_r = {r} (e_bar = 5)\n"
    digit_limit(oracle._DEFAULT_DIGIT_LIMIT)
    assert run(capsys, "macaulay", "--n", n_arg, "--d", "1", "--q", "2") == (0, macaulay_out, "")
    assert sys.get_int_max_str_digits() == oracle._DEFAULT_DIGIT_LIMIT
    # k = 2^15000 at d = m(q-1), and rank k - 5 has e_bar = 5
    argv = ("ghw", "--q", "2", "--d", "15000", "--m", "15000", "--r", r_arg)
    assert run(capsys, *argv) == (0, ghw_out, "")
    assert sys.get_int_max_str_digits() == oracle._DEFAULT_DIGIT_LIMIT
    with pytest.raises(SystemExit) as exc:  # a usage error after the big argument
        main(["macaulay", "--n", n_arg, "--d", "x", "--q", "2"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == oracle._DEFAULT_DIGIT_LIMIT


def test_macaulay_evaluates_the_summands_only_for_the_formats_that_print_them(capsys, monkeypatch):
    calls = []
    term = macaulay.dim_term
    monkeypatch.setattr(macaulay, "dim_term", lambda *args: calls.append(args) or term(*args))
    for fmt, want in (("plain", 0), ("json", 3), ("csv", 3)):
        calls.clear()
        assert run(capsys, "macaulay", "--n", "12", "--d", "3", "--q", "4", "--format", fmt)[0] == 0
        assert len(calls) == want, fmt


def test_verify_lex_refuses_a_code_past_the_hierarchy_cap_before_listing(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(weights, "MAX_WEIGHTS", 10)
    monkeypatch.setattr(oracle, "e_bar_lex_column", lambda *args: calls.append(args))
    code, out, err = run(capsys, "verify", "--q", "2", "--d", "2", "--m", "4", "--oracle", "lex")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: 11 weights exceed the hierarchy cap 10; use ghw for single ranks\n"


def test_self_checks_survive_python_O():
    # drop the last step of the first Gray walk, so one subspace goes
    # unscanned: the minimum is still 6, so only the count check can tell,
    # and `python -O` strips a plain assert
    script = textwrap.dedent("""
        import itertools, sys
        from rmweights import oracle
        from rmweights.dims import CodeParams

        print("optimize", sys.flags.optimize)
        steps, walks = oracle._gray_steps, itertools.count()
        oracle._gray_steps = lambda q, n: itertools.islice(
            steps(q, n), q**n - 1 - (next(walks) == 0)
        )
        try:
            print(oracle.min_subspace_support(CodeParams(2, 1, 3), 2))
        except AssertionError as exc:
            print(exc)
    """)
    proc = _run_python("-O", "-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "optimize 1\nscanned 34 subspaces, not [4, 2]_2 = 35\n"


def test_self_checks_catch_a_faulty_cached_gray_block():
    # drop a step inside the first Gray block built, the last 6 free
    # entries of a 10-entry walk (GF(2): q^6 = 64): every walk of 6 to 10
    # entries replays that block, 16 + 8 + 4 + 2 + 1 = 31 times in all,
    # each time a subspace short, which only the count check can tell
    # under `python -O`
    script = textwrap.dedent("""
        import itertools, sys
        from rmweights import oracle
        from rmweights.dims import CodeParams

        print("optimize", sys.flags.optimize)
        steps, walks = oracle._gray_steps, itertools.count()

        def dropping(q, n):
            listed = list(steps(q, n))
            if next(walks) == 0:
                assert n == 6  # the block of the first walk
                del listed[20]
            return iter(listed)

        oracle._gray_steps = dropping
        try:
            print(oracle.min_subspace_support(CodeParams(2, 2, 4), 1))
        except AssertionError as exc:
            print(exc)
    """)
    proc = _run_python("-O", "-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "optimize 1\nscanned 2016 subspaces, not [11, 1]_2 = 2047\n"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_closed_forms_do_not_load_numpy():
    # a None entry in sys.modules makes `import numpy` fail as if absent
    proc = _run_python(
        "-c",
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from rmweights.cli import main\n"
        "code = ['--q', '2', '--d', '1', '--m', '2']\n"
        "assert main(['dim', *code]) == 0\n"
        "for oracle in (['lex'], ['exhaustive', '--r', '1'], ['dims']):\n"
        "    assert main(['verify', *code, '--oracle', *oracle]) == 0, oracle\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\nPASS (3 ranks checked)\nPASS d_1 = 2\nPASS rho = 3 by 4 methods\n"


@pytest.mark.parametrize("load", ["import rmweights; o = rmweights.oracle", "from rmweights import oracle as o"])
def test_the_closed_forms_load_without_the_oracle(load):
    # the package imports `oracle` on first use, through a module __getattr__
    code = (
        "import sys, rmweights.weights\n"
        "assert 'rmweights.oracle' not in sys.modules\n"
        f"{load}\n"
        "import rmweights\n"
        "assert o is rmweights.oracle is sys.modules['rmweights.oracle']\n"
        "assert o.count_reduced_monomials(2, 1, 3) == 4\n"
        "assert not hasattr(rmweights, 'no_such_module')\n"
    )
    proc = _run_python("-c", code, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_only_verify_loads_the_oracle():
    # the default caps belong to the oracle's functions, so cli need not
    # import `oracle` to build its table of oracles
    code = (
        "import sys\n"
        "from rmweights.cli import main\n"
        "code = ['--q', '2', '--d', '1', '--m', '2']\n"
        "for argv in (\n"
        "    ['dim', *code], ['ghw', *code, '--r', '1'], ['hierarchy', *code],\n"
        "    ['macaulay', '--n', '5', '--d', '2', '--q', '2'], ['table', '--q', '2', '--m', '2'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'rmweights.oracle' not in sys.modules, argv\n"
        "assert main(['verify', *code, '--oracle', 'lex']) == 0\n"
        "assert 'rmweights.oracle' in sys.modules\n"
    )
    proc = _run_python("-c", code, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_lex_without_cap_stops_at_the_default_tuple_cap(capsys):
    # k = 28 passes the hierarchy cap; q^m = 2^27 does not pass 10^8
    code, out, err = run(capsys, "verify", "--q", "2", "--d", "1", "--m", "27", "--oracle", "lex")
    assert (code, out) == (2, "")
    assert err == f"error: q^m = {2**27} exceeds the enumeration cap {10**8}\n"


def test_verify_exhaustive_without_cap_scans_the_ranks_under_the_default_cap(capsys, monkeypatch):
    # [15, 1]_3 = 7,174,453 fits under 10^7 subspaces and [13, 1]_4 =
    # 22,369,621 does not; the scan is recorded with the closed form
    # standing in for the oracle, so no subspace is listed
    scanned = []
    monkeypatch.setattr(
        oracle, "min_subspace_support",
        lambda params, r, *args, **kwargs: scanned.append(r) or weights.ghw(params, r),
    )
    for q, d, m, ranks, out in (
        ("3", "2", "4", [1, 14, 15], "PASS d_1 = 27\nPASS d_14 = 80\nPASS d_15 = 81\n"),
        ("4", "4", "2", [13], "PASS d_13 = 16\n"),
    ):
        scanned.clear()
        argv = ("verify", "--q", q, "--d", d, "--m", m, "--oracle", "exhaustive")
        assert run(capsys, *argv) == (0, out, "")
        assert scanned == ranks, argv


def test_verify_dims_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--q", "5", "--d", "2", "--m", "2", "--oracle", "dims",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["values"] == {
        "formula": "6", "recursion": "6", "enumeration": "6", "binomial": "6"
    }


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    args = ("hierarchy", "--q", "3", "--d", "2", "--m", "2")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


CODE = ("--q", "2", "--d", "1", "--m", "2")
REUSE_SEQUENCE = [
    ("verify", *CODE, "--oracle", "exhaustive", "--r", "2", "--cap", "5", "--format", "json"),
    ("verify", *CODE, "--oracle", "exhaustive"),
    ("dim", *CODE, "--format", "csv"),
    ("verify", "--help"),
    ("verify", *CODE, "--oracle", "bogus"),
    ("ghw", *CODE, "--r", "1"),
]


def test_parser_reuse_leaks_nothing_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    fresh = []
    for argv in REUSE_SEQUENCE:
        proc = _run_python("-m", "rmweights.cli", *argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    # [3, 2]_2 = 7 subspaces exceed --cap 5, so the first call exits 2 after parsing
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 0]
    for _ in range(2):  # the second pass runs on a parser the first one used
        for argv, want in zip(REUSE_SEQUENCE, fresh):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want, argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert main(["dim", *CODE]) == 0
    assert capsys.readouterr().out == "3\n" * 10
    assert progs.count("rmweights") <= 1  # subparsers are named "rmweights <command>"


COMMANDS = ("dim", "macaulay", "ghw", "hierarchy", "table", "verify")
# each argv with what both routes give: a Namespace, or the exit code
ROUTE_SWEEP = [
    (("dim", *CODE, "--format", "json", "--out", "x"), argparse.Namespace),
    (("macaulay", "--n", "12", "--d", "3", "--q", "inf"), argparse.Namespace),
    (("ghw", *CODE, "--r", "1", "--format", "csv"), argparse.Namespace),
    (("hierarchy", *CODE), argparse.Namespace),
    (("table", "--q", "2..3", "--m", "1..2", "--d", "1"), argparse.Namespace),
    *((("verify", *CODE, "--oracle", name, "--cap", "9"), argparse.Namespace)
      for name in ("lex", "exhaustive", "dims")),
    (("verify", *CODE, "--oracle", "exhaustive", "--r", "2"), argparse.Namespace),
    (("-h",), 0),
    (("--help",), 0),
    *(((name, "-h"), 0) for name in COMMANDS),
    ((), 2),
    (("bogus", *CODE), 2),
    (("verify", *CODE, "--oracle", "lex", "--bogus"), 2),
    (("dim", "--bogus"), 2),
    (("ghw", *CODE), 2),  # --r is required
    (("dim", "--q", "two", "--d", "1", "--m", "2"), 2),
    (("dim", *CODE, "extra"), 2),
    (("verify", *CODE, "--oracle", "lex", "--", "x"), 2),
    (("dim", "--", *CODE), 2),
    (("--", "dim", *CODE), 2),
    (("table", "--q", "2..3", "--m=-5..3"), argparse.Namespace),
    (("dim", *CODE, "--form", "json"), argparse.Namespace),
    (("ghw", *CODE, "--r", "9" * 4301), argparse.Namespace),
    (("dim", "--q", "3", "--q", "2", "--d", "3", "--m", "5"), argparse.Namespace),  # last wins
    # shapes that the pair reader leaves to argparse
    (("dim", "--q", "2", "--d", "1", "--m", "-2"), argparse.Namespace),
    (("dim", "--q", "", "--d", "1", "--m", "2"), 2),
    (("dim", *CODE, "--format", "xml"), 2),
    (("dim", *CODE, "--out", "-h"), 2),
    (("verify", *CODE), 2),  # --oracle is required
]


@pytest.mark.parametrize(
    "argv, want", ROUTE_SWEEP, ids=lambda x: " ".join(x)[:40] if isinstance(x, tuple) else None
)
def test_main_parses_each_argv_as_parse_args_does(capsys, monkeypatch, argv, want):
    # `main` reads a command's strings with that command's parser alone;
    # the top parser's `parse_args` is the reference
    from rmweights import cli

    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width

    def outcome(parse):
        try:
            with cli._all_digits():  # as in `main`, so a 4,301-digit --r parses
                result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
        return result, *capsys.readouterr()

    got = outcome(cli._parse)
    assert got == outcome(cli.build_parser().parse_args)
    assert isinstance(got[0], argparse.Namespace) if want is argparse.Namespace else got[0] == want


def _outcome(parse, argv):
    """What `parse` gives on `argv`, as `main` calls it: a Namespace, or
    the exit code, with the stdout and stderr it wrote."""
    from rmweights import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err), cli._all_digits():
            result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


# every command, every flag of each, flags that only argparse reads, and
# values that pass some option's type or choices and fail others
_TOKENS = (
    *COMMANDS, "--q", "--d", "--m", "--n", "--r", "--oracle", "--cap", "--format", "--out",
    "--form", "--orac", "--m=2", "-h", "--",
)
_VALUES = ("2", "-1", "", " 3", "x", "2..3", "inf", "json", "lex", "xml", "9" * 4301)


@st.composite
def _argvs(draw):
    """A command with each of its flags once, in any order, and values
    that fit; then up to three changes: a pair dropped, a flag repeated,
    a value swapped or a stray token put in."""
    from rmweights import cli

    name = draw(st.sampled_from(COMMANDS))
    fits = {"--oracle": "lex", "--format": "json"}
    flags = sorted(cli._parsers()[1][name][0])
    parts = [[flag, fits.get(flag, "2")] for flag in draw(st.permutations(flags))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(parts)))
        change = draw(st.sampled_from(("drop", "repeat", "swap", "stray")))
        if change == "stray":
            parts.insert(i, [draw(st.sampled_from(_TOKENS + _VALUES))])
        elif i < len(parts):
            value = draw(st.sampled_from(_VALUES))
            if change == "drop":
                del parts[i]
            elif change == "repeat":
                parts.insert(i, [parts[i][0], value])
            else:
                parts[i] = [parts[i][0], value]
    return [name, *chain.from_iterable(parts)]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_argvs())
def test_the_pair_reader_and_argparse_give_the_same_outcome(argv):
    from rmweights import cli

    with patch.dict(os.environ, {"COLUMNS": "80"}):  # --help wraps to the terminal width
        assert _outcome(cli._parse, argv) == _outcome(cli.build_parser().parse_args, argv)


PLAN_SHAPED = [
    ("verify", *CODE, "--oracle", "lex", "--format", "plain"),
    ("verify", *CODE, "--oracle", "exhaustive", "--r", "2", "--format", "csv"),
    ("verify", *CODE, "--oracle", "dims", "--format", "json"),
]


@pytest.mark.parametrize("argv", PLAN_SHAPED, ids=("lex", "exhaustive", "dims"))
def test_main_reads_a_plan_shaped_verify_argv_without_argparse(monkeypatch, tmp_path, argv):
    def refuse(self, *args, **kwargs):
        raise RuntimeError(f"{self.prog} read the argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_text()


@pytest.mark.parametrize("argv", [
    ("dim", "--q", "2", "--d", "1", "--m=2"),
    ("dim", *CODE, "--form", "json"),
])
def test_main_leaves_other_shapes_to_argparse(capsys, monkeypatch, argv):
    reads = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        reads.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(list(argv)) == 0
    assert reads
