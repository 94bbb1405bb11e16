"""The flopcalc benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh Python process
(``one_pass.py``), so no module-level cache of flopcalc carries over from
one pass to the next.  With ``--trace 0`` passes repeat for about
``--seconds`` (at least one pass, and at least three set-ups); ``wall_s`` is
the mean pass time, and the other end-to-end metrics are medians.  With
``--trace 1`` the run makes one untraced pass and one pass under cProfile
and reports the per-layer metrics.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Raw pass results, and the profile of a traced run, are written under
``.bench_build/bench/``.  See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline", "completion", "nccr", "nf-queries")
MIN_SETUPS = 3
# Each run must end within 180 s; stop waiting for passes a little before.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def start(args, mode, env, profile_out=None):
    """Start one pass process."""
    cmd = [sys.executable, "-S", os.path.join(HERE, "one_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--spawned-at", repr(time.monotonic())]
    if profile_out:
        cmd += ["--profile-out", profile_out]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)


def finish(procs, deadline):
    """Wait for pass processes and return their parsed results; kill all on failure."""
    try:
        results = []
        for proc in procs:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise BenchError("a pass exited with %d" % proc.returncode)
            results.append(json.loads(out.decode().strip().splitlines()[-1]))
        return results
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish in time")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def verdict(results):
    """(correct, attempted, failed) over pass results; problems go to stderr."""
    problems = [p for r in results for p in r.get("problems", [])]
    digests = [r["digests"] for r in results if r.get("digests")]
    if any(d != digests[0] for d in digests):
        problems.append("serialized bases differ between passes")
    for p in problems[:20] + [e for r in results for e in r.get("errors", [])][:20]:
        print("problem: %s" % p, file=sys.stderr)
    return (not problems, sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results))


def timed_metrics(args, deadline, env):
    # Passes repeat while the next one, if it takes as long as the last,
    # ends nearer to --seconds than the run stands now, so a run ends
    # within half a pass of --seconds instead of up to a whole pass after.
    begun = time.monotonic()
    passes = []
    last = 0.0
    while not passes or time.monotonic() - begun + last / 2 < args.seconds:
        t = time.monotonic()
        passes += finish([start(args, "timed", env)], deadline)
        last = time.monotonic() - t
    setups = [p["setup_s"] for p in passes]
    extra = []
    while len(setups) < MIN_SETUPS:
        extra += finish([start(args, "setup", env)], deadline)
        setups.append(extra[-1]["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # The mean, not the median: the machine's speed switches between
        # a fast and a slow level for seconds to minutes at a time, and a
        # median over a run's passes jumps to whichever level held more of
        # them, where the mean weighs both.
        "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return passes + extra, metrics


def traced_metrics(args, deadline, env, out_dir):
    # The untraced and the profiled pass run side by side, one per core, so
    # that a traced run of the longest workload stays well inside 180 s.
    plain, prof = finish([
        start(args, "timed", env),
        start(args, "profile", env,
              os.path.join(out_dir, "%s-seed%d.prof" % (args.workload, args.seed))),
    ], deadline)
    calls = plain["call_s"]
    values = dict(prof["layers"])
    values.update({
        "ncgb.reduction_steps": plain["steps"],
        "ncgb.rules": plain["rules"],
        "ncgb.nf_p50_us": plain["nf_p50_us"],
        "ncgb.nf_p99_us": plain["nf_p99_us"],
        "flops.hypersurface_s": calls.get("hypersurface", 0.0),
        "flops.mf_s": calls.get("matrix_factorization", 0.0),
        "flops.superpotential_s": calls.get("verify_superpotential", 0.0),
        "contraction.report_s": calls.get("contraction_report", 0.0),
        "catalog.build_s": plain["catalog_s"],
        "process.cpu_s": plain["cpu_s"],
        "trace.overhead_s": prof["wall_s"] - plain["wall_s"],
    })
    units = {"_s": "s", "_us": "us", "_ratio": "ratio"}
    metrics = {name: (v, next((u for suffix, u in units.items() if name.endswith(suffix)),
                              "count"))
               for name, v in values.items()}
    return [plain, prof], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flopcalc", "__init__.py")):
        sys.exit("no flopcalc sources under %s; run from the root of a checkout" % root)
    build = os.path.join(root, ".bench_build")
    out_dir = os.path.join(build, "bench")
    os.makedirs(out_dir, exist_ok=True)
    # The hash seed is fixed: the cost of completion depends on it by up to
    # a tenth (set and dict orders), and a random one per pass drowns that
    # much of a change in noise.
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(build, "pycache"))
    # FLOPCALC_MAX_STEPS must not change the work done, and bytecode is
    # cached under .bench_build, as an installed package caches it.
    for name in ("FLOPCALC_MAX_STEPS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)

    try:
        if args.trace:
            results, metrics = traced_metrics(args, deadline, env, out_dir)
        else:
            results, metrics = timed_metrics(args, deadline, env)
    except BenchError as exc:
        sys.exit("benchmark failed: %s" % exc)
    correct, attempted, failed = verdict(results)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
