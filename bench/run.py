"""Benchmark of rmweights: one workload per invocation, metrics as JSON.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it that holds `src/`).
Workloads: hierarchy, ghw-bigint, verify-oracle (see README.md).

With --trace 0 the last stdout line carries the end-to-end metrics
wall_s, op_p50_ms, op_p90_ms, peak_rss_mb and setup_s; with --trace 1
it carries the per-layer metrics of a traced run.  All times are
rescaled to the reference kernel's speed (kernel.py), except the
process-start figures setup_s and cli.import_*.  Earlier stdout
lines are diagnostics; the full record goes to bench/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from kernel import NOMINAL_MS_PER_UNIT, nominal_seconds  # noqa: E402
from worker import PLAN_FILE  # noqa: E402

# fresh starts before and again after the timed worker, so that the
# median spans two of the host's speed phases rather than one
SETUP_STARTS = 6
IMPORT_PROBES = 3
# Every process this starts gets the time left of this budget, so a run
# on a host too slow for its plan fails without a result instead of
# being cut short and reported as if whole.
RUN_BUDGET_S = 170
DEADLINE = time.monotonic() + RUN_BUDGET_S


def _timeout() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _worker_cmd(workdir, *flags):
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workdir", str(workdir), *flags]


def _plan_seconds(args):
    # a traced run does the plan twice, with and without wrappers, so it
    # takes a plan of half the size to stay near --seconds untraced
    return args.seconds / 2 if args.trace else args.seconds


def measure_setup(workdir) -> list[float]:
    """Seconds from starting a fresh worker to its 'ready' line.

    The worker loads the plan that run.py wrote and imports what the
    workload calls; building the plan is the benchmark's own work and is
    not timed.  The times are not rescaled: starting a process, most of
    it importing numpy, does not follow the kernel's speed: on the
    reference machine, rescaling each start by a kernel run after it
    widened the range of six medians of seven starts from 7-34% to 22-45%
    of their median.
    """
    values = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd(workdir, "--ready"), stdout=subprocess.PIPE,
                                text=True, env=_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            rc = proc.wait(timeout=_timeout())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError("a fresh worker did not get ready")
        values.append(elapsed)
    return values


def run_worker(workdir, trace: bool) -> dict:
    flags = ("--trace",) if trace else ()
    proc = subprocess.run(_worker_cmd(workdir, *flags), capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=_timeout())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def timing(record, plan) -> dict:
    """End-to-end times of one worker record, rescaled to reference speed.

    Each op is rescaled by the mean of the two kernel runs around it, and
    wall_s is the sum of the rescaled ops.  The host's speed can flip
    within a second, so this tracks it more closely than one ratio of
    total op time to total kernel time: on the reference machine the
    spread of wall_s over repeated runs of one seed fell from 4-9% to 2-4%.
    """
    op_s, kernel_s = record["op_s"], record["kernel_s"]
    k_nominal = nominal_seconds(plan.kernel_units)
    speeds = [(a + b) / 2 for a, b in zip(kernel_s, kernel_s[1:])]
    rescaled = [o * k_nominal / k for o, k in zip(op_s, speeds)]
    per_op_ms = sorted(t * 1000 for t in rescaled)
    return {
        "wall_s": sum(rescaled),
        "op_p50_ms": statistics.median(per_op_ms),
        "op_p90_ms": per_op_ms[math.ceil(0.9 * len(per_op_ms)) - 1],
        "raw_op_s": sum(op_s),
        "raw_kernel_ms": statistics.median(kernel_s) * 1000 / plan.kernel_units,
        "speed": statistics.mean(kernel_s) / k_nominal,
    }


def import_times() -> tuple[float, float]:
    """Medians of `import rmweights.cli` and of numpy within it, in ms, not
    rescaled, like setup_s."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rmweights.cli"],
                              capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=_timeout())
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1000
        cli_ms.append(cumulative.get("rmweights.cli", 0.0))
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def layer_metrics(trace, scale, overhead_pct, import_ms) -> dict:
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[2] * 1000 * scale

    probes = calls("macaulay.dim_term")
    return {
        "dims.rho.calls": calls("dims.rho"),
        "dims.rho.distinct": len(trace["rho_args"]),
        "dims.rho.self_ms": self_ms("dims.rho"),
        "macaulay.decompose.calls": calls("macaulay.decompose"),
        "macaulay.decompose.self_ms": self_ms("macaulay.decompose"),
        "macaulay.coeffs_per_probe": counts.get("coeffs", 0) / probes if probes else 0.0,
        "macaulay.validate.calls": calls("macaulay.validate"),
        "macaulay.validate.self_ms": self_ms("macaulay.validate"),
        "weights.hierarchy.self_ms": self_ms("weights.hierarchy"),
        "weights.e_bar.calls": calls("weights.e_bar"),
        "weights.e_bar.self_ms": self_ms("weights.e_bar"),
        "weights.ranks": counts.get("ranks", 0),
        "oracle.e_bar_lex.calls": calls("oracle.e_bar_lex"),
        "oracle.e_bar_lex.self_ms": self_ms("oracle.e_bar_lex"),
        "oracle.enumerate_tuples.self_ms": self_ms("oracle.enumerate_tuples"),
        "oracle.tuples_listed": counts.get("tuples_listed", 0),
        "oracle.build_field.calls": calls("oracle.build_field"),
        "oracle.build_field.self_ms": self_ms("oracle.build_field"),
        "oracle.field_rank.self_ms": self_ms("oracle.field_rank"),
        "oracle.min_subspace_support.self_ms": self_ms("oracle.min_subspace_support"),
        "oracle.subspaces": counts.get("subspaces", 0),
        "cli.import_ms": import_ms[0],
        "cli.import_numpy_ms": import_ms[1],
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.overhead_pct": overhead_pct,
    }


UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
         "calls": "count", "distinct": "count", "ranks": "count", "tuples_listed": "count",
         "subspaces": "count", "coeffs_per_probe": "ratio", "overhead_pct": "%"}


def _unit(name):
    tail = name.rsplit(".", 1)[-1]
    return "ms" if tail.endswith("_ms") else UNITS[tail]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmweights" / "__init__.py").is_file():
        print(f"error: no rmweights sources under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)

    plan = workloads.build(args.workload, args.seed, _plan_seconds(args))
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    (workdir / PLAN_FILE).write_text(json.dumps(dataclasses.asdict(plan)))
    try:
        if args.trace:
            plain = run_worker(workdir, trace=False)
            record = run_worker(workdir, trace=True)
            problems = checks.check(plan, plain["outputs"]) + checks.check(plan, record["outputs"])
            base, traced = timing(plain, plan), timing(record, plan)
            scale = nominal_seconds(plan.kernel_units) / statistics.mean(record["kernel_s"])
            overhead = (traced["wall_s"] / base["wall_s"] - 1) * 100
            metrics = layer_metrics(record["trace"], scale, overhead, import_times())
            diag = {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"]}
        else:
            setup = measure_setup(workdir)
            record = run_worker(workdir, trace=False)
            setup += measure_setup(workdir)
            problems = checks.check(plan, record["outputs"])
            t = timing(record, plan)
            metrics = {
                "wall_s": t["wall_s"],
                "op_p50_ms": t["op_p50_ms"],
                "op_p90_ms": t["op_p90_ms"],
                "peak_rss_mb": record["peak_rss_kb"] / 1024,
                "setup_s": statistics.median(setup),
            }
            diag = {"raw_op_s": t["raw_op_s"], "raw_kernel_ms_per_unit": t["raw_kernel_ms"],
                    "nominal_kernel_ms_per_unit": NOMINAL_MS_PER_UNIT,
                    "host_slowdown": t["speed"], "setup_s_each": setup}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(record["op_s"])
    failed = record["failed"]
    diag.update(workload=args.workload, seed=args.seed, rounds=plan.rounds, planned_ops=len(plan.ops))
    for key, value in diag.items():
        print(f"# {key}: {value}")
    for f in failed[:5]:
        print(f"# failed op {f['index']}: {f['error']}")
    for p in problems[:10]:
        print(f"# wrong output: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**result, "diagnostics": diag,
                                    "failures": failed, "problems": problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
