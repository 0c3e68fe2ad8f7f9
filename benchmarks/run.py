#!/usr/bin/env python3
"""qcosmo benchmark: one closed-loop client, one operation at a time.

    python3 benchmarks/run.py --workload cli --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports qcosmo from its ``src``
directory; the ``cli`` workload calls ``qcosmo.cli.main`` in this process, and
its set-up is a ``python -c "import qcosmo.cli"`` child. A run repeats passes
over the workload's fixed operation list until the next pass would end after
``--seconds`` (at least one pass; two when traced), times five set-up samples
spread over that time, checks every output, and prints a summary followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics; the traced run alternates untraced and traced passes
and writes its spans to ``.bench_traces/``. BLAS and OpenMP are pinned to one
thread here, before numpy loads, and children inherit the setting.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0   # every child is stopped by then, so a run ends within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import qcosmo and build the workload's operators, then exit "
                             "(one set-up sample of an in-process workload)")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def timed_child(argv, deadline) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, capture_output=True, check=True,
                   timeout=max(1.0, deadline - start))
    return time.perf_counter() - start


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.op_times = {}
        self.kind_times = {}
        self.ref_times = []
        self.spans = []


class Reference:
    """A fixed computation that does not use qcosmo, timed after every operation.

    The machine is shared, and its speed changes by up to half for tens of
    seconds to minutes at a time. Timed at the same moments as the
    operations, this computation slows with them, so a pass's time divided by
    its time stays put when the machine's speed does not. It mixes the kinds
    of work qcosmo does: an interpreted float loop (as in RK4), single-qubit
    gates on a 256-amplitude state (as in circuit simulation), small LAPACK
    eigensolves and a 256x256 complex matrix product.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((96, 96))
        self.np = np
        self.symmetric = a @ a.T
        self.dense = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.state = np.full(256, 1 / 16, dtype=complex)
        self.gate = np.array([[0.8, -0.6], [0.6, 0.8]], dtype=complex)

    def time(self) -> float:
        np = self.np
        start = time.perf_counter()
        x = 0.5
        for _ in range(30_000):
            x = 3.7 * x * (1.0 - x)
        psi = self.state.reshape((2,) * 8)
        for k in range(80):
            psi = np.moveaxis(np.tensordot(self.gate, psi, axes=([1], [k % 8])), 0, k % 8)
        for _ in range(2):
            np.linalg.eigvalsh(self.symmetric)
        self.dense @ self.dense
        return time.perf_counter() - start


def run_pass(ops, ctx, reference, traced, failures, log) -> Pass:
    """One pass over the operation list; wall time is the sum of operation times."""
    from tracer import Tracer, install

    record = Pass(traced)
    restore = None
    if traced:
        ctx.tracer = Tracer()
        restore = install(ctx.tracer)
    try:
        for op in ops:
            ctx.op += 1
            if ctx.tracer is not None:
                ctx.tracer.op = ctx.op
            log["attempted"] += 1
            start = time.perf_counter()
            try:
                result = op.run(ctx)
            except Exception:  # a failed operation is counted, and the run goes on
                record.wall += time.perf_counter() - start
                failures.append(f"{op.name}: {traceback.format_exc(limit=2)}")
                continue
            elapsed = time.perf_counter() - start
            record.wall += elapsed
            record.op_times[op.name] = elapsed
            record.kind_times.setdefault(op.kind, []).append(elapsed)
            record.ref_times.append(reference.time())
            try:
                op.check(result)
            except Exception:  # a failed check fails the operation
                failures.append(f"{op.name}: {traceback.format_exc(limit=2)}")
    finally:
        if traced:
            restore()
            record.spans = ctx.tracer.spans
            ctx.tracer = None
    return record


def median_times(passes) -> dict[str, float]:
    """Each operation's median time over the given passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for name, elapsed in p.op_times.items():
            times.setdefault(name, []).append(elapsed)
    return {name: statistics.median(t) for name, t in times.items()}


def pass_wall(passes) -> float:
    """Wall time of one pass: the sum of each operation's median time."""
    return sum(median_times(passes).values())


def reference_s(passes) -> float:
    """The reference computation's median time over the given passes."""
    return statistics.median(t for p in passes for t in p.ref_times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcosmo" / "cli.py").is_file():
        print(f"qcosmo sources not found in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    sys.path[:0] = [str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.setup()
        return 0
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args, wl, work, started) -> int:
    import workloads

    deadline = started + RUN_LIMIT_S
    setup = [timed_child(wl.setup_argv(), deadline)]
    wl.prepare()
    import qcosmo

    if Path(qcosmo.__file__).resolve().parent != (SRC / "qcosmo").resolve():
        print(f"qcosmo imported from {qcosmo.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops = wl.operations()
    ctx = workloads.Context(work=work)
    reference = Reference()
    for _ in range(10):  # warm-up
        reference.time()
    failures: list[str] = []
    log = {"attempted": 0}
    passes: list[Pass] = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(ops, ctx, reference, traced, failures, log))
        now = time.perf_counter()
        # The set-up samples are spread over the run: the machine's speed changes
        # for tens of seconds at a time, and samples taken together share one speed.
        due = len(setup) * args.seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and now - loop_start >= due:
            setup.append(timed_child(wl.setup_argv(), deadline))
            now = time.perf_counter()
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and (now - loop_start + passes[-1].wall > args.seconds
                       or now + 2 * passes[-1].wall > deadline):
            break
    setup += [timed_child(wl.setup_argv(), deadline) for _ in range(SETUP_SAMPLES - len(setup))]
    if len(passes) == 1:
        # repeated operations must give identical output: repeat the first one
        run_pass(ops[:1], ctx, reference, False, failures, log)

    quality = wl.quality()
    fail_rate = len(failures) / log["attempted"]
    untraced = [p for p in passes if not p.traced]
    wall_s = pass_wall(untraced)
    ref_s = reference_s(untraced)
    summary = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall_s / ref_s,
        "wall_s": wall_s,
        "ref_ms": ref_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vqe_gap": quality.get("vqe_gap"),
        "eoh_deviation": quality.get("eoh_deviation"),
        "fail_rate": fail_rate,
    }
    if args.trace:
        metrics = _layer_metrics(args, wl, passes, setup, quality, deadline)
        metrics["pass.wall_s"] = wall_s
        metrics["pass.ref_ms"] = ref_s * 1e3
    else:
        metrics = summary

    print(json.dumps({"machine": machine_info()}))
    print(f"{wl.name} seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {log['attempted']} operations, "
          f"{len(failures)} failed, {time.perf_counter() - started:.1f} s in all")
    print("  set-up samples (s): " + " ".join(f"{t:.3f}" for t in setup))
    print("  pass walls (s): " + " ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    print("  median untraced operation times (s): " + ", ".join(
        f"{name} {t:.3f}" for name, t in median_times(untraced).items()))
    for name, value in summary.items():
        shown = "n/a (not run by this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    missing = names - set(metrics)
    if missing:
        print(f"metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": log["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _layer_metrics(args, wl, passes, setup, quality, deadline) -> dict:
    import layers

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics = layers.span_metrics([p.spans for p in traced])
    module = "qcosmo.cli" if wl.cli else "qcosmo"
    metrics.update(layers.import_times(module, IMPORT_SAMPLES, dict(os.environ), ROOT,
                                       timeout=max(1.0, deadline - time.perf_counter())))
    metrics["cli.import_s"] = statistics.median(setup) if wl.cli else 0.0
    for kind in ("exact", "eoh", "reproduce", "vqe"):
        times = [t for p in untraced for t in p.kind_times.get(kind, [])]
        metrics[f"cli.{kind}_s"] = statistics.median(times) if wl.cli and times else 0.0
    metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
    metrics["vqe.gap"] = quality.get("vqe_gap", 0.0)
    for preset in layers.VQE_CONFIGS:
        metrics[f"vqe.gap.{preset}"] = quality.get("gaps", {}).get(preset, 0.0)
    metrics["eoh.deviation"] = quality.get("eoh_deviation", 0.0)

    out = ROOT / ".bench_traces"
    out.mkdir(exist_ok=True)
    (out / f"{wl.name}-seed{args.seed}.json").write_text(
        json.dumps([p.spans for p in traced]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
