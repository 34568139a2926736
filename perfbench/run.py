"""stepseg benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0

runs one workload in this process. Its last line of output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the environment and every metric with its unit and sample
count. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. Without ``--workload`` every workload runs, each in its
own process. See perfbench/README.md.
"""

import os

# pinned before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train-64", "grad-256")
SETUP_REPEATS = 3
MIB = 1 << 20


def _percentile(values, q):
    """q-th percentile, interpolated between samples (never beyond them)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads(np):
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        try:
            handle = ctypes.CDLL(str(lib))
            getter = getattr(handle, "scipy_openblas_get_num_threads64_", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
        except OSError:
            pass
    return f"env {os.environ['OPENBLAS_NUM_THREADS']}"


def environment(np, workload, seed, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(), "git_sha": _git_sha(),
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def iteration_times(grad_calls):
    """Iteration times in seconds.

    Within a train call, an iteration runs from one gradient entry to the
    next. A gradient call the benchmark makes itself is one iteration.
    """
    by_group = {}
    for group, _op, _traced, start, end in grad_calls:
        by_group.setdefault(group, []).append((start, end))
    times = [end - start for start, end in by_group.pop(None, [])]
    for calls in by_group.values():
        starts = sorted(start for start, _end in calls)
        times.extend(b - a for a, b in zip(starts, starts[1:]))
    return times


def import_seconds():
    """Median wall time of a fresh interpreter importing the benchmark and stepseg."""
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    code = f"import sys; sys.path[:0] = {paths!r}; import workloads, reference, spans"
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def end_to_end(setup_s, op_times, iter_times, scale, attempted, failed):
    """Metrics of an untraced run, in reference time: wall time times scale."""
    ops = [t * scale for t in op_times]
    iters = [t * scale * 1e3 for t in iter_times]
    return {
        "setup_s": (setup_s * scale, "s", SETUP_REPEATS),
        "ok_frac": (1.0 - failed / attempted, "frac", attempted),
        "peak_rss_mib": (peak_rss_mib(), "MiB", 1),
        "op_s_p50": (statistics.median(ops), "ref-s", len(ops)),
        "iter_ms_p50": (statistics.median(iters), "ref-ms", len(iters)),
        "iter_ms_p90": (_percentile(iters, 90), "ref-ms", len(iters)),
    }


def per_layer(wl, rec, span_names, traced_ops, outputs):
    traced = set(traced_ops)
    n_ops = len(traced)
    spans = [s for s in rec.spans if s[2] in traced]
    metrics = {}
    for name in span_names:
        mine = [s for s in spans if s[3] == name]
        metrics[f"{name}.calls"] = (len(mine) / n_ops, "calls/op", n_ops)
        metrics[f"{name}.self_s"] = (sum(s[6] for s in mine) / n_ops, "s/op", n_ops)

    def counted(name):
        return [s[7] for s in spans if s[3] == name and s[7] is not None]

    conv = counted("tensor_ops.conv2d")
    conv3 = max(conv, key=lambda c: c[2])
    metrics["tensor_ops.conv2d.gflop"] = (
        sum(c[0] for c in conv) / n_ops / 1e9, "GFLOP/op", n_ops)
    metrics["tensor_ops.conv2d_adjoint_weights.gflop"] = (
        sum(c[0] for c in counted("tensor_ops.conv2d_adjoint_weights"))
        / n_ops / 1e9, "GFLOP/op", n_ops)
    metrics["tensor_ops.im2col_mib"] = (conv3[2] / MIB, "MiB", 1)
    metrics["tensor_ops.flop_per_byte"] = (conv3[0] / conv3[1], "flop/B", 1)
    metrics["network.trace_mib"] = (
        max(c[0] for c in counted("network.forward")) / MIB, "MiB", 1)

    done = [out for out in outputs if out is not None]
    metrics["training.val_miou"] = (wl.val_miou(done) if done else 0.0, "frac", 1)

    traced_grad = [e - s for _g, _op, tr, s, e in rec.grad_calls if tr]
    plain_grad = [e - s for _g, _op, tr, s, e in rec.grad_calls if not tr]
    overhead = (statistics.median(traced_grad) / statistics.median(plain_grad) - 1.0
                if traced_grad and plain_grad else 0.0)
    metrics["trace.overhead_frac"] = (overhead, "frac",
                                      min(len(traced_grad), len(plain_grad)))
    return metrics


def run_workload(name, seed, seconds, trace):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import numpy as np
    import workloads
    from reference import NOMINAL_S, Reference
    from spans import SPANS, Recorder

    wl = workloads.WORKLOADS[name]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        wl.setup(seed)
        setup_times.append(time.perf_counter() - began)
    setup_s = import_seconds() + statistics.median(setup_times)

    # reference blocks before the first operation and after each one track
    # the machine's speed through the run
    ref = Reference()
    ref.block()
    outputs, op_times, traced_ops = [], [], []
    rec = Recorder(spans=bool(trace))
    rec.install()
    try:
        began = time.perf_counter()
        # at least two operations: one traced and one not
        while len(outputs) < 2 or time.perf_counter() - began < seconds:
            rec.op = len(outputs)
            # a traced run alternates traced and untraced operations,
            # so the tracing overhead is measured within the run
            rec.tracing = bool(trace) and rec.op % 2 == 0
            if rec.tracing:
                traced_ops.append(rec.op)
            t0 = time.perf_counter()
            try:
                output = wl.op()
            except Exception:
                # a raising operation counts as failed; the run goes on
                traceback.print_exc()
                output = None
            op_times.append(time.perf_counter() - t0)
            outputs.append(output)
            rec.tracing = False
            ref.block()
    finally:
        rec.uninstall()

    done = [out for out in outputs if out is not None]
    flags = [False] * (len(outputs) - len(done)) + (wl.checks(done) if done else [])
    attempted, failed = len(flags), flags.count(False)
    env = environment(np, name, seed, seconds, trace)
    iter_times = iteration_times(rec.grad_calls)
    if trace:
        metrics = per_layer(wl, rec, SPANS, traced_ops, outputs)
        out_dir = BENCH_DIR / "traces"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{name}-seed{seed}.json", "w") as fh:
            json.dump({"env": env, "fields": ["id", "parent", "op", "name",
                                              "start", "end", "self_s", "counts"],
                       "spans": rec.spans}, fh)
    else:
        metrics = end_to_end(setup_s, op_times, iter_times, ref.scale(),
                             attempted, failed)

    print(f"env {json.dumps(env)}")
    print(f"{name}: timed operation = {wl.operation}; {attempted} checked "
          f"operations, {failed} failed (fail_frac {failed / attempted:.4f}); "
          f"val_miou {wl.val_miou(done) if done else 0.0:.6g}")
    print(f"  wall clock: setup {setup_s:.6g} s, op p50 "
          f"{statistics.median(op_times):.6g} s, iteration p50 "
          f"{statistics.median(iter_times) * 1e3:.6g} ms, p90 "
          f"{_percentile(iter_times, 90) * 1e3:.6g} ms; reference call p50 "
          f"{NOMINAL_S / ref.scale() * 1e3:.6g} ms (n={len(ref.samples)}, "
          f"nominal {NOMINAL_S * 1e3:g} ms, scale {ref.scale():.6g})")
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:<42} {value:>14.6g} {unit:<10} n={samples}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


def run_all(seed, seconds, trace):
    """Every workload, each in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        status |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)]).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run only this workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stepseg" / "__init__.py").is_file():
        print(f"run.py: no stepseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
