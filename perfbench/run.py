"""suitaverify benchmark: time to a verified answer, digits kept, per-layer cost.

Usage (from the repository root):

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in one process against the sources under ``src/``.  The
case list made from ``--seed`` is run repeatedly (a closed loop, one pass at
a time) for about ``--seconds``; every output of every pass is checked against
the oracle or a theorem.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``attempted`` and ``failed`` count the checks of the case list, once: every
pass must give each check the outcome the first pass gave it, or the run is
not correct.  So the counts depend on the seed only, not on how many passes
fit into ``--seconds``.

End-to-end metrics: ``wall_s``, the median time of one pass; ``setup_s``, the
median time of a fresh process that imports suitaverify and makes the inputs
(three of them per run); ``digits_min`` and ``digits_p50``, the worst and the
median correct-digit count ``-log10(max(rel_err, 1e-16))`` over the checks of
one pass that have a reference; ``pass_ratio``, the share of a pass's checks
that pass (the complement of the failed share, which is 0 on a clean workload);
``peak_rss_mb``, the process's peak resident memory.  Both times are in seconds
at a reference machine speed (see ``speed.py``); the raw wall seconds are in
the ``environment`` line printed before the result.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
WORKLOADS = ("family-scan", "annulus-green", "offaxis-kernel", "verify-all")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold each time it frees an mmapped block, up to
# 32 MiB, so the peak resident memory of a run depends on the order in which
# array sizes happened to come (up to +8% on annulus-green); pinned at that
# ceiling, the peak depends on what the library keeps alive only
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20

# end-to-end metric name -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "digits_min": "digits",
    "digits_p50": "digits",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cap_threads():
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(_nproc())


def _pin_malloc():
    """Fix glibc's mmap threshold; returns it, or None where the C library is not glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def _import_library():
    """Import suitaverify from this checkout's sources; exit 2 if they are missing."""
    if not (SRC / "suitaverify" / "__init__.py").is_file():
        print(f"error: no suitaverify sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import suitaverify

    if Path(suitaverify.__file__).resolve().parent != SRC / "suitaverify":
        print(f"error: imported suitaverify from {suitaverify.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return suitaverify


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _measure_setup(args):
    """Clock holding the times of fresh processes that import suitaverify and make the inputs."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    clock = speed.Clock()
    for _ in range(SETUP_REPEATS):
        clock.bracketed(lambda: subprocess.run(cmd, check=True, timeout=120))
    return clock


def _passes(workload, inp, ref, budget, clock):
    """Whole passes for about ``budget`` seconds (at least one), timed on ``clock``; their checks."""
    import cases

    results = []
    start = perf_counter()
    while True:
        results.append(clock.sampled(lambda: cases.run(workload, inp, ref)))
        # stop when another pass of median length would overrun the budget
        if perf_counter() - start + statistics.median(clock.raw) > budget:
            return results


def _digits(workload, checks):
    """Min and median correct digits over checks with a reference.

    A check failed by a known defect whose error size depends on the seed
    counts in pass_ratio only, so that it does not make these metrics jitter.
    """
    import cases

    digits = [
        -math.log10(max(c.rel_err, 1e-16))
        for c in checks
        if c.rel_err is not None and (c.ok or cases.defect_in_digits(workload, c))
    ]
    return min(digits), statistics.median(digits)


def summarize(workload, walls, setup_s, checks, peak_rss_mb):
    """End-to-end metrics of one untraced run; ``checks`` are those of one pass."""
    digits_min, digits_p50 = _digits(workload, checks)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "digits_min": digits_min,
        "digits_p50": digits_p50,
        "pass_ratio": sum(c.ok for c in checks) / len(checks),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def _traced_passes(workload, inp, ref, budget):
    """Untraced then traced passes, half the budget each: (per-layer values, checks, untraced clock).

    Both halves run on the sampling clock, so the span times include its
    probe, about 5% of the wall time, spread over whichever spans are open.
    """
    import cases
    import speed
    import tracer

    plain = speed.Clock()
    results = _passes(workload, inp, ref, budget / 2, plain)
    tr = tracer.Tracer()
    traced, per_pass = speed.Clock(), []
    tr.install()
    try:
        start = perf_counter()
        while True:
            tr.reset()
            results.append(traced.sampled(lambda: cases.run(workload, inp, ref)))
            per_pass.append(tracer.layer_metrics(tr))
            if perf_counter() - start + statistics.median(traced.raw) > budget / 2:
                break
    finally:
        tr.uninstall()
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(traced.normalised) - statistics.median(plain.normalised)
    return values, results, plain


def tally(results):
    """(attempted, failed, agree) over the checks of the passes in ``results``.

    A check counts once, as failed if it failed in any pass; ``agree`` says
    whether every pass gave every check the same outcome.
    """
    outcomes = [[(c.id, c.ok) for c in checks] for checks in results]
    agree = all(o == outcomes[0] for o in outcomes)
    return len(results[0]), max(sum(not ok for _, ok in o) for o in outcomes), agree


def _environment(lib, mmap_threshold):
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "malloc_mmap_threshold": mmap_threshold,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "suitaverify": lib.__version__,
        "machine": platform.machine(),
    }


def _run_all(args):
    """Every workload, each in its own process; prints each one's metrics."""
    ok = True
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{wl}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        print(f"{wl}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    args = _parse(argv)
    _cap_threads()
    if args.workload == "all":
        return _run_all(args)
    mmap_threshold = _pin_malloc()
    lib = _import_library()
    sys.path.insert(0, str(HERE))
    import gen

    if args.setup_probe:
        gen.generate(args.workload, args.seed)
        return 0

    import cases
    import tracer

    import speed

    setup = None if args.trace else _measure_setup(args)
    inp = gen.generate(args.workload, args.seed)
    ref = cases.references(args.workload, inp)

    env = _environment(lib, mmap_threshold)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.trace:
        values, results, plain = _traced_passes(args.workload, inp, ref, args.seconds)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracer.PER_LAYER.items()}
    else:
        plain = speed.Clock()
        results = _passes(args.workload, inp, ref, args.seconds, plain)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        metrics = summarize(args.workload, plain.normalised, statistics.median(setup.normalised), results[0], peak)
        env.update(setup_raw_s=setup.raw, setup_s=setup.normalised)
    env.update(passes=len(plain.raw), pass_raw_s=plain.raw, pass_s=plain.normalised)

    attempted, failed, agree = tally(results)
    unexpected = [c for checks in results for c in checks if not c.ok and cases.known_defect(args.workload, c) is None]
    print("environment " + json.dumps(env))
    for c in results[0]:
        if not c.ok:
            tag = cases.known_defect(args.workload, c) or "UNEXPECTED"
            print(f"failed [{tag}] {c.id} {json.dumps(c.params)} {c.detail}")
    if not agree:
        print(f"UNEXPECTED: the {len(results)} passes gave their checks different outcomes")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": agree and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
