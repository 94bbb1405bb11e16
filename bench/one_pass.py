"""One benchmark pass in a fresh process; prints its result as one JSON line.

    python3 bench/one_pass.py --workload NAME --seed N --spawned-at T --mode MODE

``run.py`` starts this script with ``PYTHONPATH=src`` from the root of a
checkout.  ``--spawned-at`` is the ``time.monotonic()`` reading taken just
before the process was started, so ``setup_s`` covers interpreter start,
import and set-up up to the first timed call.  Modes:

* ``timed``: set up, run the pass, report times, counts and checks;
* ``setup``: set up only, report ``setup_s``;
* ``profile``: as ``timed``, under cProfile from set-up to the end of the
  pass, adding the per-layer metrics of ``layers.py``.
"""

import argparse
import json
import os
import resource
import sys
import time


def _percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "setup", "profile"), required=True)
    ap.add_argument("--profile-out")
    args = ap.parse_args()

    import flopcalc
    src = os.path.realpath("src")
    if not os.path.realpath(flopcalc.__file__).startswith(src + os.sep):
        sys.exit("flopcalc was imported from %s, not from %s" % (flopcalc.__file__, src))
    import workloads

    profiler = None
    if args.mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    setup_ops = workloads.Ops()
    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.setup(args.seed, setup_ops)
    except workloads.OpFailed:
        sys.exit("set-up failed: %s" % "; ".join(setup_ops.errors))
    result = {
        "setup_s": time.monotonic() - args.spawned_at,
        "catalog_s": sum(sum(setup_ops.times.get(n, ())) for n in workloads.CATALOG_CALLS),
    }
    ops = workloads.Ops()
    if args.mode != "setup":
        c0, t0 = time.process_time(), time.perf_counter()
        wl.run(ops)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        nf = ops.times.get("normal_form", [])
        result.update({
            "wall_s": wall,
            "cpu_s": cpu,
            "steps": ops.steps,
            "rules": setup_ops.rules + ops.rules,
            "call_s": {name: sum(t) for name, t in ops.times.items()},
            "nf_p50_us": _percentile(nf, 0.50) * 1e6,
            "nf_p99_us": _percentile(nf, 0.99) * 1e6,
            "digests": ops.digests,
            "problems": ops.problems,
            "errors": setup_ops.errors + ops.errors,
        })
    if profiler is not None:
        profiler.disable()
        import layers
        result["layers"] = layers.profile_metrics(profiler)
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update({
        "peak_rss_mb": (own + children) / 1024.0,
        "attempted": setup_ops.attempted + ops.attempted,
        "failed": setup_ops.failed + ops.failed,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
