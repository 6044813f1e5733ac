"""Runs one workload's plan in a fresh process and writes its raw record to stdout.

    python3 bench/worker.py --workdir DIR [--trace | --ready]

run.py builds the plan, writes it to DIR/plan.json and starts this with
`src` on PYTHONPATH.  Every op is followed by a kernel run; the record
holds both times per op, every output, the failed ops and the peak RSS,
and run.py turns it into metrics and checks it.  With --ready the
process stops once it has loaded the plan and imported what the
workload calls, which is what setup_s times.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from kernel import kernel, timed_kernel

PLAN_FILE = "plan.json"


def _library_runner(workload):
    from rmweights import weights
    from rmweights.dims import CodeParams

    if workload == "hierarchy":
        # listed inside the timed region, so a lazy hierarchy is timed whole
        def run(op):
            return list(weights.hierarchy(CodeParams(op["q"], op["d"], op["m"])))
    else:
        def run(op):
            return weights.ghw(CodeParams(op["q"], op["d"], op["m"]), op["r"])
    return run, None


def _verify_runner(workdir):
    from rmweights import cli

    out_path = workdir / "verify.out"

    def run(op):
        return cli.main(op["argv"] + ["--out", str(out_path)])

    def collect(rc):
        text = out_path.read_text() if out_path.exists() else ""
        out_path.unlink(missing_ok=True)
        return {"rc": rc, "out": text}

    return run, collect


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready", action="store_true")
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)

    plan = json.loads((args.workdir / PLAN_FILE).read_text())
    workload = plan["workload"]
    if workload == "verify-oracle":
        run, collect = _verify_runner(args.workdir)
    else:
        run, collect = _library_runner(workload)
    if args.ready:
        print("ready", flush=True)
        return 0

    tracing = tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    units = plan["kernel_units"]
    kernel(units)  # warm the kernel's own code path
    # kernel_s[i] and kernel_s[i + 1] are the kernel runs on either side of op i
    op_s, kernel_s, outputs, failed = [], [timed_kernel(units)], [], []
    clock = time.perf_counter
    for i, op in enumerate(plan["ops"]):
        error = None
        t0 = clock()
        try:
            raw = run(op)
        except Exception as exc:  # an op that raises is counted as failed, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        op_s.append(t1 - t0)
        kernel_s.append(timed_kernel(units))
        if error is None and collect is not None:
            raw = collect(raw)
            # a verify op fails on a usage or crash exit; 1 is a mismatch, which the checks catch
            if raw["rc"] not in (0, 1):
                error = f"exit code {raw['rc']}"
        if error is not None:
            failed.append({"index": i, "error": error})
            raw = None
        outputs.append(raw)

    record = {
        "op_s": op_s,
        "kernel_s": kernel_s,
        "outputs": outputs,
        "failed": failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.export()
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
