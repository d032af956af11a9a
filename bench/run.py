"""nasolve benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload micro_2x2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: the program is imported from the
checkout's own ``src/``, never from an installed copy, and the run fails
when that source is missing.  Inputs are generated from ``--seed``.  The
workload is repeated for ``--seconds`` seconds; timings are medians over
passes (wall_s) or percentiles over all solves of the run.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones from a traced run that alternates traced and untraced passes.
The last line of standard output is one JSON object; a detailed record
(machine block, sample counts, failures, spans) goes to
``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread, pinned before NumPy is first imported: the solves are
# sequential, and on a 2-vCPU machine the default of two BLAS threads made
# a chandrasekhar_c1 pass slower (2.3-2.9 s against 1.3-1.8 s).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 7


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put the checkout's src/ first on the path; refuse any other nasolve."""
    if not (SRC / "nasolve" / "__init__.py").is_file():
        _fail(f"no nasolve source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nasolve

    if Path(nasolve.__file__).resolve().parent != SRC / "nasolve":
        _fail(f"imported nasolve from {nasolve.__file__}, not from {SRC}")


def _api():
    """The untraced api: the program's public entry points, nothing else."""
    from types import SimpleNamespace

    import nasolve

    def main(argv):
        from nasolve.harness import main as cli_main

        return cli_main(argv)

    return SimpleNamespace(solve=nasolve.solve, main=main)


def _probe_setup(args):
    """Child process: time import, problem construction and first calls."""
    t0 = time.perf_counter()
    _import_program()
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.warm(_api(), wl.inputs(np.random.default_rng(args.seed), args.smoke))
    print(repr(time.perf_counter() - t0))


def _setup_seconds(args):
    """Median set-up time over fresh processes, as the CLI pays it."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                "--workload", args.workload, "--seed", str(args.seed)]
        argv += ["--smoke"] if args.smoke else []
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), len(samples)


def _machine():
    import ctypes

    import numpy
    import scipy

    blas = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                blas.append({"lib": Path(path).name, "threads": get_threads(),
                             "config": get_config().decode()})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": _commit(),
    }


def _commit():
    """The checkout's git commit, read from .git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    return json.loads(path.read_text())


def _measure(wl, inputs, seconds, trace):
    """Repeat passes for ``seconds``; with trace, alternate untraced/traced.

    At least two untraced passes run.  The first one is checked but its
    timings are dropped: it was consistently the slowest, still filling
    caches and the allocator.
    """
    api = _api()
    tracer = traced_api = None
    if trace:  # the untraced run never imports the tracer or its patch targets
        import tracing

        tracer = tracing.Tracer()
        traced_api = tracing.traced_api(tracer)
    plain, traced, layers, consistency = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain) < 2:
        plain.append(wl.run(api, inputs))
        if tracer is None:
            continue
        tracer.reset()
        tracer.recording = len(traced) == 0
        tracer.install()
        try:
            result = wl.run(traced_api, inputs)
        finally:
            tracer.uninstall()
        traced.append(result)
        layers.append(tracer.layer_metrics(result.files_written))
        consistency.append(
            (tracer.consistency_error(), tracer.root_ns <= result.wall_ns)
        )
    return plain, traced, layers, consistency, tracer


def _percentile(samples, pct):
    import numpy as np

    return float(np.percentile(samples, pct))


def _layer_rows(spec, plain, traced, layers, consistency, tracer):
    """Per-layer metrics of a traced run, plus the detail-file entries."""
    import tracing

    names = [m["name"] for m in spec["per_layer"]]
    absent = tracer.absent_metrics(names)
    rows = {}  # name -> (value, sample note)
    for name in names:
        if name == "trace.overhead_frac":
            untraced = statistics.median(p.wall_ns for p in plain)
            value = statistics.median(p.wall_ns for p in traced) / untraced - 1
            rows[name] = (value, f"{len(traced)} traced / {len(plain)} untraced passes")
        else:
            value = statistics.median(layer[name] for layer in layers)
            rows[name] = (value, "absent" if name in absent else
                          f"median of {len(layers)} traced passes")
    worst = max(err for err, _ in consistency)
    nested = all(ok for _, ok in consistency)
    detail = {
        "absent": absent,
        "consistency": {"max_rel_error": worst, "rtol": tracing.CONSISTENCY_RTOL,
                        "spans_within_wall": nested,
                        "ok": worst <= tracing.CONSISTENCY_RTOL and nested},
        "spans": {"count": len(tracer.spans),
                  "fields": ["id", "parent", "name", "start_ns", "end_ns", "root"],
                  "rows": tracer.spans},
    }
    return rows, detail


def _end_to_end_rows(args, wl, timed):
    import resource

    by_config = defaultdict(list)
    for p in timed:
        for config, ns in p.solve_ns.items():
            by_config[config] += ns
    samples = [s for ns in by_config.values() for s in ns]
    # The configs' solve times form separate modes; a pooled median can fall
    # in a gap between two of them, so each config's median is taken first.
    p50 = statistics.mean(statistics.median(ns) for ns in by_config.values())
    # A slow stretch of the machine fills the top of the pooled samples with
    # one pass's solves.  Where every pass has about twenty solves beyond the
    # percentile on its own (micro_2x2, cli_sweep), the median of per-pass
    # percentiles outvotes it; fold_sweep's ten per pass were too few.
    per_pass = [[s for ns in p.solve_ns.values() for s in ns] for p in timed]
    fewest = min(len(pass_ns) for pass_ns in per_pass)
    if fewest * (1 - wl.tail_pct / 100) >= 15:
        tail = statistics.median(_percentile(ns, wl.tail_pct) for ns in per_pass)
        tail_note = (f"median over {len(timed)} passes of p{wl.tail_pct:g}, "
                     f"{fewest}+ solves each")
    else:
        tail = _percentile(samples, wl.tail_pct)
        tail_note = f"p{wl.tail_pct:g} of {len(samples)} solves"
    setup, probes = _setup_seconds(args)
    return {
        "wall_s": (statistics.median(p.wall_ns for p in timed) / 1e9,
                   f"median of {len(timed)} passes"),
        "solve_p50_ms": (p50 / 1e6, f"mean of {len(by_config)} per-config medians, "
                                    f"{len(samples)} solves"),
        "solve_tail_ms": (tail / 1e6, tail_note),
        "iterations": (timed[0].iterations, "exact, per pass"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "this process"),
        "setup_s": (setup, f"median of {probes} fresh processes"),
    }


def run_workload(args, spec):
    _import_program()
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(np.random.default_rng(args.seed), args.smoke)
    wl.warm(_api(), inputs)
    plain, traced, layers, consistency, tracer = _measure(
        wl, inputs, args.seconds, args.trace
    )
    passes = plain + traced
    timed = plain[1:]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = [m for p in passes for m in p.messages][:20]
    iterations = sorted({p.iterations for p in passes})
    # the same inputs every pass: a changing iteration count is a defect
    correct = failed == 0 and len(iterations) == 1

    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": _machine(),
            "pass_wall_s": [p.wall_ns / 1e9 for p in plain],
            "iterations_per_pass": iterations, "attempted": attempted,
            "failed": failed, "fail_frac": failed / attempted, "failures": messages}
    if args.trace:
        rows, detail = _layer_rows(spec, timed, traced, layers, consistency, tracer)
        info.update(detail)
        correct = correct and detail["consistency"]["ok"]
        metric_specs = spec["per_layer"]
    else:
        rows = _end_to_end_rows(args, wl, timed)
        metric_specs = spec["end_to_end"]

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(passes)} passes "
          f"(first untimed), fail_frac {failed / attempted:g} ({failed}/{attempted})")
    metrics = {}
    for m in metric_specs:
        value, note = rows[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<8} ({note})")
    for message in messages:
        print(f"  FAILED: {message}")
    print(f"  machine: {json.dumps(info['machine'])}")
    info["metrics"] = {k: {**v, "samples": rows[k][1]} for k, v in metrics.items()}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    detail_path = workloads.OUT_DIR / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    detail_path.write_text(json.dumps(info, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args, names):
    """Every workload, each in its own process (peak_rss_mb is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            _fail(f"workload {name} exited with {out.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the smoke test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args)
    elif args.workload == "all":
        run_all(args, names)
    else:
        run_workload(args, spec)


if __name__ == "__main__":
    main()
