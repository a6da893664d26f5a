"""cacconv benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  One process runs one workload in a
closed loop, one op in flight.  Workloads (see ``workloads.py``):

* ``train_cifar10fmt``: ``train.forward_backward`` (lambda 0.3) plus
  ``train.sgd_step`` on batch 64 of a ten-class CIFAR-10-format set
  fabricated from the seed and read back with ``data.load_cifar10``;
* ``eval_smooth``: ``train.evaluate`` on 64 smooth blobs, gates pinned
  to (gamma, beta) = (1, -6), at most 5% of windows sharp per layer;
* ``eval_sharp``: the same on 64 iid-noise images, gates pinned to
  (1, 10), every window sharp.

BLAS runs one thread, set before numpy loads (see ``BLAS_THREADS``).
Everything between the imports and the first timed op (data, network
build, one warm-up op, the oracle check) runs ``SETUP_REPEATS`` times;
``setup_s`` is the import time, from the first line of this file, plus
the median of those set-ups.  The eval warm-up must route within its
band, or the run stops with exit code 1.  Outside the timed region every
op's result is checked, and one extra op is checked against the
brute-force oracle before and after timing.  After timing, a fresh
set-up from the same seed replays the ops behind ``madds_per_image``
(and the train loss); a figure that differs stops the run with exit
code 1.

Before each untraced op, and once after the last, a fixed reference
kernel (``reference_kernel``, no cacconv code) runs and is timed on its
own.  The bounded speed metrics are op time over the mean of the two
kernel times around it, which cancels the shared host's speed: it
drifts by up to 1.5x over minutes, and with it every wall-clock figure.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, plus the
wall-clock ``images_per_s`` and ``op_ms``, ``failed_fraction`` and
``train_loss``, which are not bounded there.
``--trace 1`` prints its per-layer metrics: ops alternate between
untraced and traced (spans around calls into ``data``, ``tensor``,
``cac``, ``layers``, ``cost`` and ``train``), then a layer probe times
the dense reference and fits the cost model.  Every run writes its
metrics, machine record and spans to
``bench/out/<workload>-seed<n>-trace<t>.json``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 3
# One BLAS thread: on a 2-vCPU shared host, two BLAS threads made train
# steps about 10% faster but spread the medians of interleaved runs about
# 3x wider.
BLAS_THREADS = 1
TAIL_PERCENTILE = 80


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train_cifar10fmt", "eval_smooth", "eval_sharp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def commit_hash():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    # The ceiling keeps git from reporting a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads_in_use(np):
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fname in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                      "openblas_get_num_threads"):
            fn = getattr(lib, fname, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(np, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads_set": threads,
        "blas_threads_in_use": blas_threads_in_use(np),
        "commit": commit_hash(),
    }


def retained_bytes(net):
    """Bytes of activations the network still references after an op."""
    return float(sum(out.nbytes for _, out in net._outputs))


def reference_kernel(np):
    """A fixed mix of the work the ops do, using no cacconv code: BLAS
    matmuls, elementwise passes over a batch of feature maps and a
    pure-Python loop: about 15 ms on one core of a 2-vCPU x86 host, and
    2-4 MB added to ``peak_rss_mb``.  Returns the kernel as a function
    of no arguments."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 576))
    b = rng.standard_normal((576, 512))
    x = rng.standard_normal((64, 16, 16, 16))

    def kernel():
        for _ in range(2):
            c = a @ b
        for _ in range(2):
            y = np.maximum(x, 0.0) * 1.5 + x.mean(axis=(0, 2, 3), keepdims=True)
        s = 0
        for i in range(40000):
            s += i * i
        return c, y, s

    return kernel


def timed_ops(wl, state, seconds, before=None, after=None, min_ops=1, reference=None):
    """Closed loop for ``seconds`` and at least ``min_ops`` ops; returns
    (op seconds, reference seconds, failed count).  ``before(i)`` and
    ``after(i)`` run outside the timed region of op i; ``reference``,
    if given, runs and is timed just before each op and once after the
    last, so that every op lies between two of its runs."""
    times, ref_times, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < min_ops:
        i = len(times)
        if reference:
            t0 = time.perf_counter()
            reference()
            ref_times.append(time.perf_counter() - t0)
        if before:
            before(i)
        t0 = time.perf_counter()
        try:
            result = wl.run_op(state)
            ok = True
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        times.append(time.perf_counter() - t0)
        if after:
            after(i)
        if ok and not wl.check_op(state, result):
            ok = False
        failed += 0 if ok else 1
    if reference:
        t0 = time.perf_counter()
        reference()
        ref_times.append(time.perf_counter() - t0)
    return times, ref_times, failed


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


# Metric name -> span key for the gated-layer spans.
GATED_SPANS = {
    "forward_hard": "cac.cac_forward_hard",
    "forward_soft": "cac.cac_forward_soft",
    "backward": "cac.cac_backward",
}
# Spans reported as total ms per op, and as self ms per op.
TOTAL_SPANS = ("tensor.col2im_batch", "tensor.im2col_batch", "tensor.channel_mean",
               "cac.score_map", "cac.aggregate_kernel", "cac.sobel_gradient_backward",
               "train.sgd_step")
SELF_SPANS = ("train.forward_backward", "train.evaluate")


def reference_around(ref_times):
    """Per op, the mean time of the reference runs before and after it."""
    import numpy as np

    ref = np.asarray(ref_times)
    return (ref[:-1] + ref[1:]) / 2


def end_to_end_metrics(wl, state, import_s, setup_times, times, ref_times, peak_rss_mb):
    """The bounded metrics, and the wall-clock speed figures beside them.
    ``cal`` is one run of the reference kernel, timed around each op."""
    import numpy as np

    around = reference_around(ref_times)
    rel = np.asarray(times) / around
    ms = np.asarray(times) * 1e3
    bounded = {
        "setup_s": import_s + statistics.median(setup_times),
        "images_per_cal": wl.BATCH * float(around.sum()) / sum(times),
        "op_cal.p50": float(np.percentile(rel, 50)),
        f"op_cal.p{TAIL_PERCENTILE}": float(np.percentile(rel, TAIL_PERCENTILE)),
        "peak_rss_mb": peak_rss_mb,
        "madds_per_image": wl.madds_per_image(state),
    }
    wall = {
        "images_per_s": wl.BATCH * len(times) / sum(times),
        "op_ms.p50": float(np.percentile(ms, 50)),
        f"op_ms.p{TAIL_PERCENTILE}": float(np.percentile(ms, TAIL_PERCENTILE)),
        "reference_ms.p50": float(np.percentile(ref_times, 50) * 1e3),
    }
    return bounded, wall


def per_layer_metrics(wl, tracer, state, times, times_untraced, retained):
    """Per-op means over the traced (odd) ops; data spans per set-up.  A
    span reads 0 where the workload never calls it (the hard path in
    train, backward in eval): ``Tracer.install`` has made sure that every
    traced function exists."""
    ops = range(1, 2 * len(times), 2)
    total, self_ms = tracer.span_totals(ops)
    counts = tracer.count_totals(ops)
    m = {}
    for gl, _ in state.net.cac_layers():
        for metric, span in GATED_SPANS.items():
            m[f"cac.{metric}.{gl}.ms"] = total.get(f"{span}.{gl}", 0.0)
            m[f"cac.{metric}.{gl}.self_ms"] = self_ms.get(f"{span}.{gl}", 0.0)
        # Every workload runs each gated layer, so its counts must exist.
        m[f"cac.{gl}.rho_hard"] = counts[f"cac.{gl}.sharp"] / counts[f"cac.{gl}.windows"]
        m[f"cac.{gl}.madds_kxk"] = counts[f"cac.{gl}.madds_kxk"] / wl.BATCH
        m[f"cac.{gl}.madds_1x1"] = counts[f"cac.{gl}.madds_1x1"] / wl.BATCH
    for layer in state.net.layers:
        m[f"layers.{layer.name}.fwd_ms"] = total.get(f"layers.{layer.name}.fwd", 0.0)
        m[f"layers.{layer.name}.bwd_ms"] = total.get(f"layers.{layer.name}.bwd", 0.0)
    for span in TOTAL_SPANS:
        m[f"{span}.ms"] = total.get(span, 0.0)
    for span in SELF_SPANS:
        m[f"{span}.self_ms"] = self_ms.get(span, 0.0)
    m["tensor.im2col_batch.bytes"] = counts["tensor.im2col_batch.bytes"]
    m["cost.madds_cac.calls"] = counts["cost.madds_cac.calls"]
    m["layers.retained_bytes"] = statistics.median(retained)

    setup_total, _ = tracer.span_totals(f"setup{r}" for r in range(SETUP_REPEATS))
    m["data.load_cifar10.ms"] = setup_total.get("data.load_cifar10", 0.0)
    m["data.synth_dataset.ms"] = setup_total.get("data.synth_dataset", 0.0)

    per_s_untraced = len(times_untraced) / sum(times_untraced)
    per_s_traced = len(times) / sum(times)
    m["trace.overhead_frac"] = per_s_untraced / per_s_traced - 1.0
    return m


def main(argv=None):
    args = parse_args(argv)
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "cacconv")):
        fail(f"no cacconv sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)

    import numpy as np

    import checks
    import probe
    import workloads as wl
    from tracing import Tracer

    import_s = time.perf_counter() - T_START
    declared = declared_metrics(args.trace)
    workdir = os.path.join(BENCH_DIR, "work")
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    is_train = args.workload == "train_cifar10fmt"

    tracer = Tracer() if args.trace else None

    # Set up several times and report the median: one set-up is too
    # short to time steadily.  The last set-up is the one timed.
    setup_times, failures, failed = [], [], 0
    for r in range(SETUP_REPEATS):
        state = None  # one set-up alive at a time, so peak_rss_mb repeats
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            tracer.op = f"setup{r}"
        state = wl.setup(args.workload, args.seed, workdir,
                         attach=tracer.attach if tracer else None)
        if tracer:
            tracer.op = None
            tracer.uninstall()
        band = wl.rho_band_error(state)
        if band:
            fail(band)
        check_failures, _, logits = checks.output_check(state, args.seed)
        setup_times.append(time.perf_counter() - t0)
        failures += check_failures
        failed += 1 if check_failures else 0
    eval_loss = None if is_train else float(state.net.head.loss(logits, state.y)[0])

    if tracer:
        # Odd ops run traced, even ops untraced, so the tracing overhead
        # is measured against the same stretch of machine time.
        retained = []

        def before(i):
            if i % 2:
                tracer.install(state.net)
                tracer.op = i

        def after(i):
            if i % 2:
                tracer.op = None
                tracer.uninstall()
                retained.append(retained_bytes(state.net))

        all_times, _, failed_timed = timed_ops(wl, state, args.seconds, before, after,
                                               min_ops=2)
        times, times_untraced = all_times[1::2], all_times[0::2]
    else:
        all_times, ref_times, failed_timed = timed_ops(wl, state, args.seconds,
                                                       reference=reference_kernel(np))
        times = all_times
    failed += failed_timed
    # The oracle-checked ops count as attempted ops too.
    attempted = len(all_times) + SETUP_REPEATS + 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    post_failures, gated, _ = checks.output_check(state, args.seed + 1)
    failures += post_failures
    failed += 1 if post_failures else 0

    train_loss = float(np.mean(state.step_losses)) if is_train else eval_loss
    if tracer:
        metrics = per_layer_metrics(wl, tracer, state, times, times_untraced, retained)
        metrics.update(probe.probe(state.net, gated))
        metrics["train_loss"] = train_loss
    else:
        metrics, wall = end_to_end_metrics(wl, state, import_s, setup_times, times,
                                           ref_times, peak_rss_mb)

    # Same seed, fresh set-up: the reported figures must repeat exactly.
    madds = wl.madds_per_image(state)
    steps = len(state.step_losses)
    state = None
    replayed = wl.replay(args.workload, args.seed, workdir, steps)
    reported = (madds, train_loss if is_train else None)
    if replayed != reported:
        fail(f"madds_per_image, train loss {reported} differ from a second set-up "
             f"from seed {args.seed}: {replayed}")

    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        fail(f"metrics out of step with BENCHMARK.json: missing {missing}, undeclared {extra}")
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    machine = machine_record(np, threads)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g} timed ops {len(times)}")
    print("machine " + json.dumps(machine))
    for name, m in result_metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    if not tracer:
        tail = metrics[f"op_cal.p{TAIL_PERCENTILE}"]
        beyond = sum(1 for t, r in zip(times, reference_around(ref_times)) if t / r > tail)
        print(f"  op_cal samples {len(times)}, {beyond} beyond p{TAIL_PERCENTILE}")
        print("  wall clock, not bounded (moves with the host's speed):")
        for name, value in wall.items():
            print(f"    {name:<34} {value:>14.6g} {'1/s' if name == 'images_per_s' else 'ms'}")
        label = (f"mean of the first {steps} timed steps" if is_train
                 else "cross-entropy of the eval batch")
        print(f"  train_loss {train_loss:.6g} nat ({label})")
    print(f"  failed_fraction {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for f in failures:
        print(f"  check failed: {f}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": result_metrics,
        "import_s": import_s, "setup_times_s": setup_times, "op_times_s": times,
        "attempted": attempted, "failed": failed, "check_failures": failures,
    }
    if tracer:
        record["untraced_op_times_s"] = times_untraced
        record["spans"] = tracer.to_json()
    else:
        record["reference_times_s"] = ref_times
        record["wall"] = wall
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)

    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
