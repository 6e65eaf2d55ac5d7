"""One workload in a fresh process; ``run.py`` starts it and reads its result.

Prints one JSON line: the set-up time, and unless ``--setup-only``, the
pass times, item latencies, peak memory, failures and (with ``--trace 1``)
the per-layer metrics of one traced pass.
"""

import argparse
import json
import resource
import statistics
import sys
import time


def attempt(call, check):
    """Time one call and check its result: (seconds, None or an error message)."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:                  # an unexpected raise fails the item
        return time.perf_counter() - t0, f"raised {exc!r}"
    latency = time.perf_counter() - t0
    try:
        return latency, check(result)
    except Exception as exc:                  # so does output the check cannot read
        return latency, f"check raised {exc!r}"


def run_passes(workload, seconds):
    """Run whole passes for about ``seconds``; the first pass always completes.

    A pass's time is the sum of its calls, without the checks.  Divisible
    workloads stop at the first item boundary past the deadline; the others
    start a pass only if it is expected to end by then.  Also returns the
    times of the complete runs of the first pass's inputs, the last of them
    the warmest.
    """
    start = time.perf_counter()
    deadline = start + seconds
    pass_times, first_pass_times, latencies, failures = [], [], [], []
    attempted = 0
    k = 0
    while True:
        items = workload.passes[k % len(workload.passes)]
        spent = 0.0
        for label, call, check in items:
            latency, error = attempt(call, check)
            latencies.append(latency)
            spent += latency
            attempted += 1
            if error is not None:
                failures.append(f"{label}: {error}")
            if k and workload.divisible and time.perf_counter() >= deadline:
                break
        else:
            pass_times.append(spent)
            if k % len(workload.passes) == 0:
                first_pass_times.append(spent)
        k += 1
        now = time.perf_counter()
        if now >= deadline or (not workload.divisible and now + statistics.median(pass_times) > deadline):
            return pass_times, first_pass_times, latencies, attempted, failures


def traced_pass(workload):
    """Run the first pass once under the tracer; (tracer, pass time, failures)."""
    from spans import Tracer

    tracer = Tracer()
    failures = []
    wall = 0.0
    tracer.install()
    try:
        for label, call, check in workload.passes[0]:
            latency, error = attempt(call, check)
            wall += latency
            if error is not None:
                failures.append(f"{label} (traced): {error}")
    finally:
        tracer.uninstall()
    return tracer, wall, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import quandles  # noqa: F401  (part of set-up: the import a user pays for)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    out = {"setup_s": time.monotonic() - args.spawned_at, "fingerprint": workload.fingerprint,
           "numpy": numpy.__version__}
    if not args.setup_only:
        pass_times, first_pass_times, latencies, attempted, failures = run_passes(workload, args.seconds)
        out.update(pass_times=pass_times, latencies=latencies, attempted=attempted, failures=failures)
        if args.trace:
            tracer, wall, traced_failures = traced_pass(workload)
            out["failures"] += traced_failures
            out["attempted"] += len(workload.passes[0])
            out["layers"] = tracer.metrics(wall, first_pass_times[-1])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
