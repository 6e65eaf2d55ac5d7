"""Benchmark of the quandles package: four workloads, end to end and per layer.

Run from the root of a checkout (the directory holding ``src/quandles``):

    python3 perfbench/run.py --workload analyze-stream --seed 1 --seconds 12 --trace 0

Each workload runs in a fresh single-threaded Python process (``worker.py``),
one process at a time.  The same workload is first set up in SETUP_SAMPLES - 1
extra processes that stop once ready, so ``setup_s`` is a median.  Human
readable lines go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--out FILE`` also appends the full record (every metric,
the item samples' sizes, the environment, the input fingerprint) as one JSON
line, for ``compare.py``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("verify-sweep", "analyze-stream", "census", "load-large")
STREAM_WORKLOADS = ("analyze-stream", "load-large")     # the ones with per-item latencies
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0          # seconds for the whole command, all processes included


def percentile_ms(samples, q):
    """The q-quantile in ms, or None unless at least ten samples lie beyond it."""
    n = len(samples)
    if n * (1 - q) < 10:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return 1000 * cuts[round(q * 100) - 1]


def as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def environment(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(root, "src", "quandles")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def spawn(args, workdir, env, setup_only, deadline):
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    os.makedirs(workdir)
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {args.workload} did not finish within {TIME_LIMIT:.0f} s")
    finally:                    # also on SIGTERM: never leave a worker or its files behind
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", metavar="FILE", help="append the full record here as a JSON line")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"error: stopped by signal {signum}"))

    deadline = time.monotonic() + TIME_LIMIT
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quandles", "__init__.py")):
        raise SystemExit("error: run from the root of a quandles checkout (no src/quandles here)")
    spec = load_spec()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    workdir = os.path.join(HERE, f"_work-{args.workload}-{os.getpid()}")

    setups = [spawn(args, workdir, env, True, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, workdir, env, False, deadline)
    setups.append(res["setup_s"])

    lat = res["latencies"]
    attempted = res["attempted"]
    failed = len(res["failures"])
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["pass_times"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    if args.workload in STREAM_WORKLOADS:
        e2e["item_p50_ms"] = percentile_ms(lat, 0.5), "ms"
        e2e["item_p90_ms"] = percentile_ms(lat, 0.9), "ms"
    env_info = dict(environment(root), numpy=res["numpy"])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env_info.items()))
    if res["fingerprint"]:
        print(f"inputs fingerprint {res['fingerprint']}")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(res['pass_times'])} passes",
        "item_p50_ms": f"{len(lat)} items",
        "item_p90_ms": f"{len(lat)} items",
        "failed_frac": f"{failed} of {attempted}",
    }
    for name, (value, unit) in e2e.items():
        shown = "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<12} {shown}  ({notes.get(name, 'worker process')})")
    for message in res["failures"][:20]:
        print(f"FAIL {message}")
    from oracles import OUT_OF_REACH

    for what, why in OUT_OF_REACH:
        print(f"not run (out of reach): {what}: {why}")

    if args.trace:
        layers = res["layers"]
        for name, (value, unit) in layers.items():
            print(f"  {name:<48} {value:.6g} {unit}")
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "attempted": attempted, "failed": failed, "failures": res["failures"][:20],
            "metrics": as_json(e2e),
            "items": len(lat), "pass_times": res["pass_times"], "setups": setups,
            "fingerprint": res["fingerprint"], "environment": env_info,
        }
        if args.trace:
            record["layers"] = as_json(res["layers"])
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    }))


if __name__ == "__main__":
    main()
