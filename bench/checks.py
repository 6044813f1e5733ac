"""Independent checks of every output a run produced.

Each check recomputes what the output should say with reference.py
(counting DP, descending-lex unranking and listing, Wei duality, the
closed-form first weight) and never with rmweights.  Ops that failed are
counted by the worker and not checked here.  `check` returns a list of
problems; an empty list means every output is right.
"""

from __future__ import annotations

import json
import random

import reference as ref

SAMPLED_RANKS = 3  # ranks per hierarchy checked by unranking, besides the shape


def check(plan, outputs) -> list[str]:
    checker = _CHECKERS[plan.workload]
    problems = []
    for i, (op, out) in enumerate(zip(plan.ops, outputs)):
        if out is None:
            continue
        try:
            problems += [f"op {i} {op}: {p}" for p in checker(op, out, i)]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"op {i} {op}: unreadable output ({type(exc).__name__}: {exc})")
    if plan.workload == "hierarchy":
        for i in range(0, len(outputs) - 1, 2):
            if outputs[i] is not None and outputs[i + 1] is not None:
                problems += [f"pair {i}: {p}" for p in wei_duality(plan.ops[i], outputs[i], outputs[i + 1])]
    return problems


# -- weights ---------------------------------------------------------------


def _check_hierarchy(op, weights, index):
    """Shape of a hierarchy plus SAMPLED_RANKS ranks recomputed by unranking."""
    q, d, m = op["q"], op["d"], op["m"]
    rows = ref.count_rows(q, d, m)
    k = rows[m][d]
    if len(weights) != k:
        return [f"{len(weights)} weights, counting DP gives k = {k}"]
    problems = []
    if any(a >= b for a, b in zip(weights, weights[1:])):
        problems.append("weights not strictly increasing")
    if weights[-1] != q**m:
        problems.append(f"last weight {weights[-1]} != q^m = {q**m}")
    if weights[0] != ref.first_weight(q, d, m):
        problems.append(f"d_1 = {weights[0]} != {ref.first_weight(q, d, m)}")
    rng = random.Random(index)
    for r in sorted(rng.randint(1, k) for _ in range(SAMPLED_RANKS)):
        want = ref.weight(q, d, m, r, rows)
        if weights[r - 1] != want:
            problems.append(f"d_{r} = {weights[r - 1]}, unranking gives {want}")
    return problems


def wei_duality(op, weights, dual_weights) -> list[str]:
    """{d_r(C)} and {q^m + 1 - d_r(C-perp)} must partition {1..q^m}."""
    n = op["q"] ** op["m"]
    ours = set(weights)
    theirs = {n + 1 - w for w in dual_weights}
    if len(weights) + len(dual_weights) != n or ours & theirs or ours | theirs != set(range(1, n + 1)):
        return ["Wei duality fails: the two hierarchies do not partition {1..q^m}"]
    return []


def _check_ghw(op, value, index):
    want = ref.weight(op["q"], op["d"], op["m"], op["r"])
    return [] if value == want else [f"d_r = {value}, unranking gives {want}"]


# -- verify ------------------------------------------------------------------


def _lines(text):
    return text.strip().splitlines()


def _csv(text, header):
    lines = _lines(text)
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_verify(op, out, index):
    if out["rc"] != 0:
        return [f"exit code {out['rc']}, expected 0 (PASS): {out['out'][-200:]!r}"]
    q, d, m, fmt, text = op["q"], op["d"], op["m"], op["format"], out["out"]
    k = ref.dimension(q, d, m)
    if op["oracle"] == "lex":
        if fmt == "plain":
            return [] if _lines(text) == [f"PASS ({k} ranks checked)"] else [f"not PASS over {k} ranks"]
        if fmt == "json":
            doc = json.loads(text)
            ok = doc == {"oracle": "lex", "status": "pass", "checked": k, "mismatches": []}
            return [] if ok else [f"not a pass over {k} ranks: {doc}"]
        n = q**m
        want = [(str(r), str(n - w), str(n - w), "true")
                for r, w in enumerate(ref.listed_hierarchy(q, d, m), start=1)]
        rows = [tuple(row) for row in _csv(text, "r,e_bar,oracle,match")]
        return [] if rows == want else ["lex CSV rows differ from the descending-lex listing"]
    if op["oracle"] == "exhaustive":
        r = op["r"]
        w = ref.weight(q, d, m, r)
        if fmt == "plain":
            return [] if _lines(text) == [f"PASS d_{r} = {w}"] else [f"not PASS d_{r} = {w}"]
        if fmt == "json":
            doc = json.loads(text)
            want = {"oracle": "exhaustive", "status": "pass",
                    "checks": [{"r": r, "formula": str(w), "exhaustive": str(w), "match": True}]}
            return [] if doc == want else [f"expected a pass with d_{r} = {w}: {doc}"]
        rows = _csv(text, "r,formula,exhaustive,match")
        return [] if rows == [[str(r), str(w), str(w), "true"]] else [f"expected d_{r} = {w}"]
    methods = 4 if d <= q - 1 else 3
    if fmt == "plain":
        want = [f"PASS rho = {k} by {methods} methods"]
        return [] if _lines(text) == want else [f"expected {want[0]!r}"]
    if fmt == "json":
        doc = json.loads(text)
        ok = (doc["oracle"] == "dims" and doc["status"] == "pass"
              and len(doc["values"]) == methods and set(doc["values"].values()) == {str(k)})
        return [] if ok else [f"expected all {methods} methods at rho = {k}: {doc}"]
    rows = _csv(text, "method,rho")
    ok = len(rows) == methods and all(v == str(k) for _, v in rows)
    return [] if ok else [f"expected {methods} methods at rho = {k}"]


_CHECKERS = {
    "hierarchy": _check_hierarchy,
    "ghw-bigint": _check_ghw,
    "verify-oracle": _check_verify,
}
