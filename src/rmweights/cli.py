"""Command-line front end.

Subcommands: dim, macaulay, ghw, hierarchy, table, verify.  Exit codes:
0 success, 1 verification mismatch or a failed internal check, 2 usage
or validation error or a result too big for memory.  In JSON output the
computed dimensions, weights, summands and sums are decimal strings;
the code parameters, ranks, counts and Macaulay coefficients are JSON
numbers, written in full at any size, so a reader that takes numbers as
doubles rounds those past 2^53.  Integers are read and printed in full
whatever Python's int <-> str digit limit (`_all_digits`).

`main` reads an argv whose first string names a command and whose rest
are plain `--flag value` pairs by one table lookup per flag
(`_read_pairs`), to the Namespace that `build_parser().parse_args`
gives; `parse_args` reads every other argv (`_parse`) and writes every
help, usage and error message.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from itertools import islice

from . import weights
from .dims import (
    CodeParams, _digit_limit, is_prime_power, rho, rho_binomial, rho_recursive,
)
from .macaulay import INFINITY, decompose


def _parse_qparam(text: str):
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"q must be an integer or 'inf', got {text!r}") from None


def _parse_range(text: str) -> range:
    """Parse '3' or '2..5' into an inclusive range."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected N or LO..HI") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


@contextmanager
def _all_digits():
    """Lift Python's int <-> str digit limit for the block, and restore
    the caller's limit however the block ends."""
    limit = _digit_limit()  # 0: no limit, as before Python 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(path, fmt, doc, header, rows, lines) -> None:
    """Print one result in the requested format, to stdout, or to the
    file at `path` (`--out`).

    The file is opened here, once the command has its result, so a
    command that fails before it leaves an existing file as it was.
    json prints the document built by the zero-argument callable `doc`;
    csv prints `header` and then each row's cells as they are given;
    plain prints each line that the zero-argument callable `lines`
    returns.  `rows` may be a generator, so no format builds another
    format's output.  Numbers are formatted only here, with the digit
    limit lifted (`_all_digits`), so a result prints in full at any size."""
    with _all_digits(), nullcontext(sys.stdout) if path is None else open(path, "w") as out:
        if fmt == "json":
            # in slices of the encoder's chunks: neither the whole text
            # nor one write per chunk (a system call on unbuffered stdout)
            chunks = json.JSONEncoder(indent=2).iterencode(doc())
            while text := "".join(islice(chunks, 4096)):
                out.write(text)
            print(file=out)
        elif fmt == "csv":
            print(header, file=out)
            csv.writer(out, lineterminator="\n").writerows(rows)
        else:
            for line in lines():
                print(line, file=out)


# Every subcommand returns its report: its verdict, then `_emit`'s doc,
# header, rows and lines.  `main` prints it and exits 0 on a true verdict,
# 1 on a false one.
def cmd_dim(args) -> tuple:
    params = CodeParams(args.q, args.d, args.m)
    value = params.dimension
    return (
        True, lambda: {"params": asdict(params), "rho": str(value)},
        "q,d,m,rho", [(params.q, params.d, params.m, value)], lambda: [value],
    )


def cmd_macaulay(args) -> tuple:
    qparam = _parse_qparam(args.q)
    rep = decompose(args.n, args.d, qparam)

    def doc():  # the summands are evaluated only for the formats that print them
        terms = rep.term_values()
        total = str(sum(terms))
        return {
            "q": "inf" if qparam == INFINITY else qparam,
            "d": rep.d,
            "coeffs": list(rep.coeffs),
            "terms": [str(t) for t in terms],
            "sum": total,
            "n": total,  # rep.n is defined as the sum of the summands
        }

    def rows():
        yield from zip(range(rep.d, 0, -1), rep.coeffs, rep.term_values())

    return (
        True, doc, "degree,coefficient,term", rows(),
        lambda: ["(" + ", ".join(str(c) for c in rep.coeffs) + ")"],
    )


def cmd_ghw(args) -> tuple:
    params = CodeParams(args.q, args.d, args.m)
    eb = weights.e_bar(params, args.r)
    dr = params.length - eb
    return (
        True, lambda: {
            "params": asdict(params),
            "r": args.r,
            "e_bar": str(eb),
            "d_r": str(dr),
        },
        "q,d,m,r,e_bar,d_r", [(params.q, params.d, params.m, args.r, eb, dr)],
        lambda: [f"d_r = {dr} (e_bar = {eb})"],
    )


def cmd_hierarchy(args) -> tuple:
    params = CodeParams(args.q, args.d, args.m)
    h = weights.hierarchy(params)
    return (
        True, lambda: {
            "params": asdict(params),
            "rho": str(len(h)),
            "weights": [str(w) for w in h],
        },
        "r,d_r", enumerate(h, start=1), lambda: [" ".join(str(w) for w in h)],
    )


def cmd_table(args) -> tuple:
    # parse every range, test every q and cap every code first, so bad
    # input is rejected before the header
    q_range = _parse_range(args.q)
    m_range = _parse_range(args.m)
    d_range = _parse_range(args.d) if args.d is not None else range(1, sys.maxsize)
    qs = [q for q in q_range if is_prime_power(q)]  # a range like 5..7 skips q = 6

    def codes():
        # each range clipped to the codes that exist: m >= 1, 1 <= d <= m(q-1)
        for q in qs:
            for m in range(max(1, m_range.start), m_range.stop):
                for d in range(max(1, d_range.start), min(d_range.stop, m * (q - 1) + 1)):
                    yield CodeParams(q, d, m)

    for params in codes():
        weights.check_hierarchy_cap(params)

    def rows():
        for params in codes():
            for r, w in enumerate(weights.hierarchy(params), start=1):
                yield params.q, params.d, params.m, r, w

    return True, None, "q,d,m,r,d_r", rows(), None


def _verify_lex(params: CodeParams, caps: dict, r) -> tuple:
    from . import oracle
    # the tuple cap bounds q^m, not k: refuse a code past the hierarchy
    # cap before its tuples are listed
    weights.check_hierarchy_cap(params)
    k = params.dimension
    column = oracle.e_bar_lex_column(params, **caps)
    # the greedy at every rank, and the digit-sum pass of `hierarchy`
    greedy = tuple(weights.e_bars(params))
    n = params.length  # a property that computes q^m: read it once
    walk = tuple(map(n.__sub__, weights.hierarchy(params)))
    for values, what in ((column, "the lex oracle lists {} tuples"),
                         (greedy, "the greedy gives {} values"),
                         (walk, "the walk gives {} values")):
        if len(values) != k:  # zip would stop at a short column
            raise ValueError(f"{what.format(len(values))}, not rho = {k}")
    # whole columns compare in C; rows are made per rank only for csv or
    # once a mismatch exists
    rows = lambda: zip(range(1, k + 1), greedy, walk, column)
    mismatches = []
    if not greedy == walk == column:
        mismatches = [row for row in rows() if not row[1] == row[2] == row[3]]

    def lines():
        for r, a, w, b in mismatches:
            shown = "" if w == a else f" walk={w}"
            yield f"MISMATCH r={r}: e_bar={a}{shown} oracle={b}"
        if mismatches:
            yield f"FAIL ({len(mismatches)} mismatches / {k} ranks)"
        else:
            yield f"PASS ({k} ranks checked)"

    return (
        not mismatches, lambda: {
            "checked": k,
            "mismatches": [
                {"r": r, "e_bar": str(a), **({} if w == a else {"walk": str(w)}), "oracle": str(b)}
                for r, a, w, b in mismatches
            ],
        },
        "r,e_bar,oracle,match",
        ((r, a, b, "true" if a == w == b else "false") for r, a, w, b in rows()), lines,
    )


def _verify_exhaustive(params: CodeParams, caps: dict, r) -> tuple:
    from . import oracle
    if r is not None:
        ranks = [r]
    else:
        oracle.check_matrix_caps(params)  # before a rank scan that could only end at a cap
        ranks = oracle.ranks_under_cap(params.dimension, params.q, **caps)
        if not ranks:
            raise ValueError("no rank fits under the subspace cap; pass --r or raise --cap")
    rows = []
    for s in ranks:
        exhaustive = oracle.min_subspace_support(params, s, **caps)  # its caps before ghw's q^m
        rows.append((s, weights.ghw(params, s), exhaustive))
    mismatches = [row for row in rows if row[1] != row[2]]

    def lines():
        for s, a, b in rows:
            yield f"PASS d_{s} = {a}" if a == b else f"MISMATCH d_{s}: formula={a} exhaustive={b}"
        if mismatches:
            yield f"FAIL ({len(mismatches)} mismatches / {len(rows)} ranks)"

    return (
        not mismatches, lambda: {
            "checks": [
                {"r": s, "formula": str(a), "exhaustive": str(b), "match": a == b}
                for s, a, b in rows
            ],
        },
        "r,formula,exhaustive,match",
        ((s, a, b, "true" if a == b else "false") for s, a, b in rows), lines,
    )


def _verify_dims(params: CodeParams, caps: dict, r) -> tuple:
    from . import oracle
    q, d, m = params.q, params.d, params.m
    # enumerate first: a code past the cap exits before the closed forms run
    enumeration = oracle.count_reduced_monomials(q, d, m, **caps)
    values = {
        "formula": rho(q, d, m),
        "recursion": rho_recursive(q, d, m),
        "enumeration": enumeration,
    }
    if d <= q - 1:
        values["binomial"] = rho_binomial(q, d, m)
    agreed = len(set(values.values())) == 1

    def lines():
        if agreed:
            return [f"PASS rho = {values['formula']} by {len(values)} methods"]
        return [*(f"{name} = {v}" for name, v in values.items()), "FAIL (methods disagree)"]

    return (
        agreed, lambda: {"values": {name: str(v) for name, v in values.items()}},
        "method,rho", values.items(), lines,
    )


# verify's oracles: name -> check.  A check imports `oracle` itself, so no
# other subcommand loads it, and passes `caps`, {"cap": --cap} or {} for
# each oracle function's own default, to the functions it calls.  It returns
# a subcommand's report whose doc holds its own JSON keys only.  lex tests
# `e_bars` and `hierarchy`, exhaustive tests `weights.ghw`: both run the
# bounded probe of `decompose` (`macaulay._probe`) at each rank checked.
_ORACLES = {"lex": _verify_lex, "exhaustive": _verify_exhaustive, "dims": _verify_dims}


def cmd_verify(args) -> tuple:
    if args.r is not None and args.oracle != "exhaustive":
        raise ValueError(f"--r applies only to --oracle exhaustive, not --oracle {args.oracle}")
    if args.cap is not None and args.cap < 0:
        raise ValueError("--cap must be >= 0")
    caps = {} if args.cap is None else {"cap": args.cap}
    passed, keys, *report = _ORACLES[args.oracle](CodeParams(args.q, args.d, args.m), caps, args.r)
    frame = {"oracle": args.oracle, "status": "pass" if passed else "fail"}
    return (passed, lambda: {**frame, **keys()}, *report)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one, so repeated in-process calls of `main` build it once.  Callers
    must not mutate it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple:
    """The top parser and a dict of the pair reader's tables by command
    name, built once per process.

    Each option is declared once, here.  A command's table is made from
    the `Action`s that its `add_argument` calls return and from its
    parser's `get_default`: its flags, each mapped to its action; the
    Namespace of the command before any option is read (`command`, then
    the default of every dest, `func` and table's `format` among them);
    and the dests of its required options."""
    parser = argparse.ArgumentParser(
        prog="rmweights",
        description="Dimensions and generalized Hamming weights of q-ary Reed-Muller codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}

    def command(name, summary, *options, **defaults):
        p = sub.add_parser(name, help=summary)
        actions = [p.add_argument(flag, **kw) for flag, kw in options]
        p.set_defaults(**defaults)
        dests = [a.dest for a in actions] + list(defaults)
        tables[name] = (
            {a.option_strings[0]: a for a in actions},
            {"command": name, **{dest: p.get_default(dest) for dest in dests}},
            frozenset(a.dest for a in actions if a.required),
        )

    def opt(flag, **kw):
        return flag, kw

    code = [opt(flag, type=int, required=True) for flag in ("--q", "--d", "--m")]
    out = opt("--out", metavar="PATH", help="write output to PATH instead of stdout")
    common = [opt("--format", choices=("plain", "json", "csv"), default="plain"), out]

    command("dim", "dimension rho_q(d, m) of RM(d, m)", *code, *common, func=cmd_dim)
    command(
        "macaulay", "Macaulay representation of n with respect to q",
        opt("--n", type=int, required=True),
        opt("--d", type=int, required=True),
        opt("--q", required=True, help="prime power, or 'inf' for the classical mode"),
        *common, func=cmd_macaulay,
    )
    command(
        "ghw", "r-th generalized Hamming weight of RM(d, m)",
        *code, opt("--r", type=int, required=True), *common, func=cmd_ghw,
    )
    command("hierarchy", "full weight hierarchy of RM(d, m)", *code, *common, func=cmd_hierarchy)
    command(
        "table", "stream hierarchies for parameter ranges as CSV",
        opt("--q", required=True, help="value or inclusive range like 2..4"),
        opt("--m", required=True, help="value or inclusive range like 1..4"),
        opt("--d", help="value or range; defaults to 1..m(q-1)"),
        out, func=cmd_table, format="csv",
    )
    command(
        "verify", "compare closed forms against a brute-force oracle",
        *code,
        opt("--oracle", choices=_ORACLES, required=True),
        opt("--r", type=int, help="single rank to check (exhaustive oracle)"),
        opt("--cap", type=int, help="enumeration cap override"),
        *common, func=cmd_verify,
    )
    return parser, tables


def _read_pairs(table, strings) -> argparse.Namespace | None:
    """The Namespace of a command's `strings` when they are plain pairs,
    or None for argparse to read them.

    Plain pairs are `--flag value` pairs in which every flag is one of the
    command's options spelled in full, no value starts with '-', each
    value passes its option's `type` and `choices`, and every required
    option is given.  argparse reads such strings without an error, to
    the Namespace built here (of a repeated flag, the last value wins in
    both); so every other shape, help, usage error and message is left to
    argparse alone."""
    flags, namespace, required = table
    if len(strings) % 2:
        return None
    values = {}
    pairs = iter(strings)
    for flag, text in zip(pairs, pairs):
        action = flags.get(flag)
        if action is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse catches
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**(namespace | values))


def _parse(argv: list) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` gives, by a table lookup per
    flag where it can.

    When argv[0] names a command and the rest are plain `--flag value`
    pairs (`_read_pairs`), the Namespace is built from that command's
    table; `parse_args` reads every other argv."""
    parser, tables = _parsers()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _read_pairs(table, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one command on `argv` (default: sys.argv[1:]) and return its
    exit code; a usage error exits 2 through argparse, as `parse_args`
    does (`_parse`)."""
    with _all_digits():  # so --n and --r take integers of any size
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        passed, *report = args.func(args)
        _emit(args.out, args.format, *report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its own message is empty
        print("error: out of memory", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a sum or count check of the library
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
