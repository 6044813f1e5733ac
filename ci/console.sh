#!/usr/bin/env bash
# Runs the console script end to end; exits 0 only if every check passes.
#
#   bash ci/console.sh                                    # the installed `rmweights`
#   RMWEIGHTS="python3 -m rmweights.cli" bash ci/console.sh
#
# The tests call cli.main in-process; this runs the command as a user
# does: a passing verify with each oracle (exit 0), the lex one also at
# (2, 4, 26), whose 2^26 digit tuples it walks as values in under a second
# (about 21 s when it listed and sorted the tuples), the dims one there
# too, whose count reads the same listing as one run per each of its
# 2^10 heads, the exhaustive one
# with and without --r and with a --cap that leaves only the top rank,
# and at (2, 2, 4), r = 1, whose walks of up to 10 free entries replay
# cached Gray blocks of 6, four usage errors (exit 2: one naming the
# m >= 1 that a code needs, no command, and an unknown option after a
# command, which ends at argparse's `unrecognized arguments` error),
# command lines that only argparse reads, not the pair reader in front
# of it (an --m=5, an abbreviated --form, and a --format outside its
# choices, exit 2 with argparse's own message), a repeated --q whose
# last value wins, a
# table whose wide ranges are clipped to the codes that exist, byte for
# byte the table of m = 1..3, and a 12,042-digit n whose coefficients
# pass a float's 53 bits, which the integer guess decomposes in well
# under a second (the float guess took about 91 s); its "n" is a JSON
# string; and a ghw at (2, 1000, 2000), r = 10^100, whose rho_2 probes
# take the binomial sum (about 16 s by the alternating one), checked
# against the sha256 of its bytes; and the hierarchy of (4, 12, 8), whose
# q^m = 2^16 is the longest the scan takes, checked against the sha256
# that tests/test_cli.py reads from here and checks against the walk's
# weights.
set -euo pipefail
trap 'echo "ci/console.sh: the check on line $LINENO failed" >&2' ERR

GHW_SHA256=29415850d5cd0370719344b6150657c0458c0313c4f1523264dce7d5470ea57e
HIERARCHY_SHA256=1f61779bebf0df6b7607829a1f275e892767f41026736b1f6e677ddc67d0ddbf

read -r -a rmweights <<< "${RMWEIGHTS:-rmweights}"

out=$("${rmweights[@]}" verify --q 4 --d 3 --m 3 --oracle lex)
test "$out" = "PASS (20 ranks checked)"
out=$(timeout 10 "${rmweights[@]}" verify --q 2 --d 4 --m 26 --oracle lex)
test "$out" = "PASS (17902 ranks checked)"
out=$("${rmweights[@]}" verify --q 2 --d 1 --m 2 --oracle exhaustive)
test "$out" = $'PASS d_1 = 2\nPASS d_2 = 3\nPASS d_3 = 4'
out=$("${rmweights[@]}" verify --q 2 --d 2 --m 3 --oracle exhaustive --r 2)
test "$out" = "PASS d_2 = 3"
out=$("${rmweights[@]}" verify --q 2 --d 3 --m 5 --oracle exhaustive --cap 10)
test "$out" = "PASS d_26 = 32"
out=$("${rmweights[@]}" verify --q 2 --d 2 --m 4 --oracle exhaustive --r 1)
test "$out" = "PASS d_1 = 4"
out=$("${rmweights[@]}" verify --q 5 --d 2 --m 2 --oracle dims)
test "$out" = "PASS rho = 6 by 4 methods"
out=$(timeout 10 "${rmweights[@]}" verify --q 2 --d 4 --m 26 --oracle dims)
test "$out" = "PASS rho = 17902 by 3 methods"
code=0
"${rmweights[@]}" dim --q 6 --d 1 --m 1 || code=$?
test "$code" -eq 2
code=0
err=$("${rmweights[@]}" dim --q 2 --d 1 --m -2 2>&1) || code=$?
test "$code" -eq 2
test "$err" = "error: m must be >= 1"
code=0
"${rmweights[@]}" 2>/dev/null || code=$?
test "$code" -eq 2
code=0
err=$("${rmweights[@]}" verify --q 2 --d 1 --m 2 --oracle lex --bogus 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "${err##*$'\n'}" = "rmweights: error: unrecognized arguments: --bogus"
out=$("${rmweights[@]}" dim --q 2 --d 3 --m=5)
test "$out" = "26"
out=$("${rmweights[@]}" dim --q 3 --q 2 --d 3 --m 5)
test "$out" = "26"
out=$("${rmweights[@]}" dim --q 2 --d 3 --m 5 --form csv)
test "$out" = $'q,d,m,rho\n2,3,5,26'
code=0
err=$("${rmweights[@]}" dim --q 2 --d 3 --m 5 --format xml 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
[[ "${err##*$'\n'}" == "rmweights dim: error: argument --format"* ]]
cmp <(timeout 10 "${rmweights[@]}" table --q 2..3 --m=-5..3 --d=-1000000000000..1000000000000) \
  <("${rmweights[@]}" table --q 2..3 --m 1..3)
n=$(python3 -c 'import sys; getattr(sys, "set_int_max_str_digits", int)(0); print(2**40000)')
out=$(timeout 30 "${rmweights[@]}" macaulay --n "$n" --d 40 --q 2 --format json)
test "$(printf '%s' "$out" | python3 -c 'import json, sys; print(json.load(sys.stdin)["n"])')" = "$n"
out=$(timeout 30 "${rmweights[@]}" ghw --q 2 --d 1000 --m 2000 --r "$(python3 -c 'print(10**100)')" | sha256sum)
test "$out" = "$GHW_SHA256  -"
out=$(timeout 30 "${rmweights[@]}" hierarchy --q 4 --d 12 --m 8 | sha256sum)
test "$out" = "$HIERARCHY_SHA256  -"
