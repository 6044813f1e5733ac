"""Byte-exact output of every subcommand in every format.

Each case pins stdout, stderr and the exit code, so any change to the
rendering (JSON indentation, CSV booleans, line order, FAIL summaries)
shows up here.
"""

import pytest

from rmweights import oracle, weights
from rmweights.cli import main

GOLDEN = [
    pytest.param(
        "dim --q 2 --d 3 --m 5 --format plain", 0, "26\n", "",
        id="dim-plain",
    ),
    pytest.param(
        "dim --q 2 --d 3 --m 5 --format json", 0, """\
{
  "params": {
    "q": 2,
    "d": 3,
    "m": 5
  },
  "rho": "26"
}
""", "",
        id="dim-json",
    ),
    pytest.param(
        "dim --q 2 --d 3 --m 5 --format csv", 0, """\
q,d,m,rho
2,3,5,26
""", "",
        id="dim-csv",
    ),
    pytest.param(
        "dim --q 6 --d 1 --m 2 --format plain", 2, "", "error: q must be a prime power\n",
        id="dim-error-plain",
    ),
    pytest.param(
        "dim --q 6 --d 1 --m 2 --format json", 2, "", "error: q must be a prime power\n",
        id="dim-error-json",
    ),
    pytest.param(
        "dim --q 6 --d 1 --m 2 --format csv", 2, "", "error: q must be a prime power\n",
        id="dim-error-csv",
    ),
    pytest.param(
        "macaulay --n 12 --d 3 --q 4 --format plain", 0, "(2, 0, 0)\n", "",
        id="macaulay-plain",
    ),
    pytest.param(
        "macaulay --n 12 --d 3 --q 4 --format json", 0, """\
{
  "q": 4,
  "d": 3,
  "coeffs": [
    2,
    0,
    0
  ],
  "terms": [
    "10",
    "1",
    "1"
  ],
  "sum": "12",
  "n": "12"
}
""", "",
        id="macaulay-json",
    ),
    pytest.param(
        "macaulay --n 12 --d 3 --q 4 --format csv", 0, """\
degree,coefficient,term
3,2,10
2,0,1
1,0,1
""", "",
        id="macaulay-csv",
    ),
    pytest.param(
        "macaulay --n 16 --d 3 --q inf --format plain", 0, "(2, 2, -1)\n", "",
        id="macaulay-inf-plain",
    ),
    pytest.param(
        "macaulay --n 16 --d 3 --q inf --format json", 0, """\
{
  "q": "inf",
  "d": 3,
  "coeffs": [
    2,
    2,
    -1
  ],
  "terms": [
    "10",
    "6",
    "0"
  ],
  "sum": "16",
  "n": "16"
}
""", "",
        id="macaulay-inf-json",
    ),
    pytest.param(
        "macaulay --n 16 --d 3 --q inf --format csv", 0, """\
degree,coefficient,term
3,2,10
2,2,6
1,-1,0
""", "",
        id="macaulay-inf-csv",
    ),
    pytest.param(
        "ghw --q 4 --d 3 --m 3 --r 8 --format plain", 0, "d_r = 46 (e_bar = 18)\n", "",
        id="ghw-plain",
    ),
    pytest.param(
        "ghw --q 4 --d 3 --m 3 --r 8 --format json", 0, """\
{
  "params": {
    "q": 4,
    "d": 3,
    "m": 3
  },
  "r": 8,
  "e_bar": "18",
  "d_r": "46"
}
""", "",
        id="ghw-json",
    ),
    pytest.param(
        "ghw --q 4 --d 3 --m 3 --r 8 --format csv", 0, """\
q,d,m,r,e_bar,d_r
4,3,3,8,18,46
""", "",
        id="ghw-csv",
    ),
    pytest.param(
        "hierarchy --q 2 --d 2 --m 3 --format plain", 0, "2 3 4 5 6 7 8\n", "",
        id="hierarchy-plain",
    ),
    pytest.param(
        "hierarchy --q 2 --d 2 --m 3 --format json", 0, """\
{
  "params": {
    "q": 2,
    "d": 2,
    "m": 3
  },
  "rho": "7",
  "weights": [
    "2",
    "3",
    "4",
    "5",
    "6",
    "7",
    "8"
  ]
}
""", "",
        id="hierarchy-json",
    ),
    pytest.param(
        "hierarchy --q 2 --d 2 --m 3 --format csv", 0, """\
r,d_r
1,2
2,3
3,4
4,5
5,6
6,7
7,8
""", "",
        id="hierarchy-csv",
    ),
    pytest.param(
        "hierarchy --q 2 --d 20 --m 40", 2, "",
        "error: 618679078298 weights exceed the hierarchy cap 5000000; use ghw for single ranks\n",
        id="hierarchy-over-cap",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 3 --oracle lex --format plain", 0, "PASS (4 ranks checked)\n", "",
        id="verify-lex-plain",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 3 --oracle lex --format json", 0, """\
{
  "oracle": "lex",
  "status": "pass",
  "checked": 4,
  "mismatches": []
}
""", "",
        id="verify-lex-json",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 3 --oracle lex --format csv", 0, """\
r,e_bar,oracle,match
1,4,4,true
2,2,2,true
3,1,1,true
4,0,0,true
""", "",
        id="verify-lex-csv",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle exhaustive --format plain", 0, """\
PASS d_1 = 2
PASS d_2 = 3
PASS d_3 = 4
""", "",
        id="verify-exhaustive-plain",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle exhaustive --format json", 0, """\
{
  "oracle": "exhaustive",
  "status": "pass",
  "checks": [
    {
      "r": 1,
      "formula": "2",
      "exhaustive": "2",
      "match": true
    },
    {
      "r": 2,
      "formula": "3",
      "exhaustive": "3",
      "match": true
    },
    {
      "r": 3,
      "formula": "4",
      "exhaustive": "4",
      "match": true
    }
  ]
}
""", "",
        id="verify-exhaustive-json",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle exhaustive --format csv", 0, """\
r,formula,exhaustive,match
1,2,2,true
2,3,3,true
3,4,4,true
""", "",
        id="verify-exhaustive-csv",
    ),
    pytest.param(
        "verify --q 5 --d 2 --m 2 --oracle dims --format plain", 0, "PASS rho = 6 by 4 methods\n", "",
        id="verify-dims-plain",
    ),
    pytest.param(
        "verify --q 5 --d 2 --m 2 --oracle dims --format json", 0, """\
{
  "oracle": "dims",
  "status": "pass",
  "values": {
    "formula": "6",
    "recursion": "6",
    "enumeration": "6",
    "binomial": "6"
  }
}
""", "",
        id="verify-dims-json",
    ),
    pytest.param(
        "verify --q 5 --d 2 --m 2 --oracle dims --format csv", 0, """\
method,rho
formula,6
recursion,6
enumeration,6
binomial,6
""", "",
        id="verify-dims-csv",
    ),
    pytest.param(
        "table --q 2..4 --m 1..2 --d 2", 0, """\
q,d,m,r,d_r
2,2,2,1,1
2,2,2,2,2
2,2,2,3,3
2,2,2,4,4
3,2,1,1,1
3,2,1,2,2
3,2,1,3,3
3,2,2,1,3
3,2,2,2,5
3,2,2,3,6
3,2,2,4,7
3,2,2,5,8
3,2,2,6,9
4,2,1,1,2
4,2,1,2,3
4,2,1,3,4
4,2,2,1,8
4,2,2,2,11
4,2,2,3,12
4,2,2,4,14
4,2,2,5,15
4,2,2,6,16
""", "",
        id="table",
    ),
    pytest.param(
        "table --q 2 --m 3..1", 2, "", "error: empty range '3..1'\n",
        id="table-bad-range",
    ),
    pytest.param(
        # (2, 20, m) fits the cap up to m = 22; every code is checked before the header
        "table --q 2 --m 1..40 --d 20", 2, "",
        "error: 8388331 weights exceed the hierarchy cap 5000000; use ghw for single ranks\n",
        id="table-over-cap",
    ),
]

# run with the oracles made to disagree, see `oracle_off_by_one`
GOLDEN_FAIL = [
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle lex --format plain", 1, """\
MISMATCH r=1: e_bar=2 oracle=3
FAIL (1 mismatches / 3 ranks)
""", "",
        id="lex-plain",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle lex --format json", 1, """\
{
  "oracle": "lex",
  "status": "fail",
  "checked": 3,
  "mismatches": [
    {
      "r": 1,
      "e_bar": "2",
      "oracle": "3"
    }
  ]
}
""", "",
        id="lex-json",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle lex --format csv", 1, """\
r,e_bar,oracle,match
1,2,3,false
2,1,1,true
3,0,0,true
""", "",
        id="lex-csv",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle exhaustive --format plain", 1, """\
MISMATCH d_1: formula=2 exhaustive=3
PASS d_2 = 3
PASS d_3 = 4
FAIL (1 mismatches / 3 ranks)
""", "",
        id="exhaustive-plain",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle exhaustive --format json", 1, """\
{
  "oracle": "exhaustive",
  "status": "fail",
  "checks": [
    {
      "r": 1,
      "formula": "2",
      "exhaustive": "3",
      "match": false
    },
    {
      "r": 2,
      "formula": "3",
      "exhaustive": "3",
      "match": true
    },
    {
      "r": 3,
      "formula": "4",
      "exhaustive": "4",
      "match": true
    }
  ]
}
""", "",
        id="exhaustive-json",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 2 --oracle exhaustive --format csv", 1, """\
r,formula,exhaustive,match
1,2,3,false
2,3,3,true
3,4,4,true
""", "",
        id="exhaustive-csv",
    ),
    pytest.param(
        "verify --q 5 --d 2 --m 2 --oracle dims --format plain", 1, """\
formula = 6
recursion = 6
enumeration = 7
binomial = 6
FAIL (methods disagree)
""", "",
        id="dims-plain",
    ),
    pytest.param(
        "verify --q 5 --d 2 --m 2 --oracle dims --format json", 1, """\
{
  "oracle": "dims",
  "status": "fail",
  "values": {
    "formula": "6",
    "recursion": "6",
    "enumeration": "7",
    "binomial": "6"
  }
}
""", "",
        id="dims-json",
    ),
    pytest.param(
        "verify --q 5 --d 2 --m 2 --oracle dims --format csv", 1, """\
method,rho
formula,6
recursion,6
enumeration,7
binomial,6
""", "",
        id="dims-csv",
    ),
]

# run with the digit walk made to disagree, see `walk_off_at_rank_2`
GOLDEN_WALK_FAIL = [
    pytest.param(
        "verify --q 2 --d 1 --m 3 --oracle lex --format plain", 1, """\
MISMATCH r=2: e_bar=2 walk=3 oracle=2
FAIL (1 mismatches / 4 ranks)
""", "",
        id="lex-walk-plain",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 3 --oracle lex --format json", 1, """\
{
  "oracle": "lex",
  "status": "fail",
  "checked": 4,
  "mismatches": [
    {
      "r": 2,
      "e_bar": "2",
      "walk": "3",
      "oracle": "2"
    }
  ]
}
""", "",
        id="lex-walk-json",
    ),
    pytest.param(
        "verify --q 2 --d 1 --m 3 --oracle lex --format csv", 1, """\
r,e_bar,oracle,match
1,4,4,true
2,2,2,false
3,1,1,true
4,0,0,true
""", "",
        id="lex-walk-csv",
    ),
]


@pytest.fixture
def oracle_off_by_one(monkeypatch):
    """Make each oracle overshoot by one: at rank 1 only for lex and
    exhaustive, so passing and failing ranks mix, and on the count for dims."""
    column = oracle.e_bar_lex_column
    support = oracle.min_subspace_support
    count = oracle.count_reduced_monomials

    def bumped_column(*args):
        first, *rest = column(*args)
        return (first + 1, *rest)

    monkeypatch.setattr(oracle, "e_bar_lex_column", bumped_column)
    monkeypatch.setattr(
        oracle, "min_subspace_support", lambda params, r, *args: support(params, r, *args) + (r == 1)
    )
    monkeypatch.setattr(oracle, "count_reduced_monomials", lambda *args: count(*args) + 1)


@pytest.fixture
def walk_off_at_rank_2(monkeypatch):
    """Make the digit walk give (4, 5, 7, 8) for (2, 1, 3), whose weights
    are (4, 6, 7, 8): still strictly increasing and ending at q^m, so
    only the comparison can catch it."""
    monkeypatch.setattr(weights, "_weights", lambda params: (4, 5, 7, 8))


def _check(capsys, argv, code, out, err):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


@pytest.mark.parametrize("argv, code, out, err", GOLDEN)
def test_golden_output(capsys, argv, code, out, err):
    _check(capsys, argv, code, out, err)


@pytest.mark.parametrize("argv, code, out, err", GOLDEN_FAIL)
def test_golden_fail_output(capsys, oracle_off_by_one, argv, code, out, err):
    _check(capsys, argv, code, out, err)


@pytest.mark.parametrize("argv, code, out, err", GOLDEN_WALK_FAIL)
def test_golden_walk_fail_output(capsys, walk_off_at_rank_2, argv, code, out, err):
    _check(capsys, argv, code, out, err)
