"""Run one workload of the lcsplit benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload orbit-oracle --seed 1 --seconds 12 --trace 0

Everything runs in this one process on one thread, as a closed loop with a
single caller: the next op starts when the previous one has been checked.
The first block of inputs is generated once, by the benchmark's own code
alone.  Set-up then imports ``lcsplit`` afresh from ``src/`` and builds the
``lcsplit`` graphs of that block; it is done ``SETUP_REPEATS`` times, each
after a probe (see below), and ``setup_s`` is the median.
Then a fixed number of ops runs: ``--seconds`` times the workload's
``OPS_PER_S``, set so that on the baseline machine a run takes about
``--seconds`` of op time (qasst-dynamic about a third of that, as its
checks cost several times its ops).  The seed and ``--seconds`` alone fix
which ops run, so the same seed attempts the same ops and fails the same
ones on every run of the same code.  Each op is checked against an oracle
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
ops untraced, replays the same ops with every span wrapper installed, and
prints the per-layer metrics and the tracing overhead.  A last pass replays
the same ops from the start for a quarter of the time with ``tracemalloc``
on, for the peak allocation of a single op.  The last line of output is one
JSON object; the lines before it give each metric by name with its unit.

The machine this runs on is shared, and its speed drifts by a quarter or
more from one minute to the next.  So the benchmark also times a fixed
integer loop that uses no memory to speak of (``probe_seconds``) before the
first op and every ``PROBE_INTERVAL_S`` between ops, and multiplies every
reported time by ``PROBE_REF_S`` over the run's median probe time: a
reported time is what the run would have measured on a machine whose probe
takes ``PROBE_REF_S``.  The unscaled figures are printed as comments.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import KNOWN_DEFECT, WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
PROBE_REF_S = 0.006  # the probe's typical time on the machine of the baseline
PROBE_INTERVAL_S = 0.25
# A pass with a time budget ends after WALL_FACTOR times that budget of wall
# time, and every run after WALL_LIMIT_S, so it ends within 180 seconds on a
# slow machine (a run cut this way attempts fewer ops, and says so).
WALL_FACTOR = 3.0
WALL_LIMIT_S = 150.0
LCSPLIT_MODULES = ("graphs", "families", "orbit", "counting", "qasst", "qasst_ops", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

SPAN_STATS = ("calls", "total_s", "self_s")
PER_LAYER = (
    ("graphs.canonical_key.calls", "count"),
    ("graphs.canonical_key.total_s", "s"),
    ("graphs.local_complement.calls", "count"),
    ("graphs.local_complement.total_s", "s"),
    ("orbit.enumerate_orbit.calls", "count"),
    ("orbit.enumerate_orbit.total_s", "s"),
    ("orbit.enumerate_orbit.self_s", "s"),
    ("orbit.members", "count"),
    ("orbit.lc_applications", "count"),
    ("orbit.new_member_ratio", "ratio"),
    ("orbit.repeat_share", "ratio"),
    ("orbit.min_edge_member.total_s", "s"),
    ("orbit.min_max_degree_member.total_s", "s"),
    ("orbit.orbit_iso_classes.total_s", "s"),
    ("orbit.transformation_between.total_s", "s"),
    ("graphs.find_isomorphism.calls", "count"),
    ("graphs.find_isomorphism.total_s", "s"),
    ("counting.total_s", "s"),
    ("qasst.eliminate_extensions.calls", "count"),
    ("qasst.eliminate_extensions.total_s", "s"),
    ("qasst.eliminated_vertices", "count"),
    ("qasst_ops.replay.calls", "count"),
    ("qasst_ops.replay.total_s", "s"),
    ("qasst.Qasst.copy.calls", "count"),
    ("qasst.Qasst.copy.total_s", "s"),
    ("qasst.Qasst.normalize.total_s", "s"),
    ("qasst.Qasst.validate.total_s", "s"),
    ("qasst.compute_qasst.calls", "count"),
    ("qasst.compute_qasst.total_s", "s"),
    ("qasst.compute_qasst.self_s", "s"),
    ("qasst.kernel_vertices", "count"),
    ("qasst.kernel_max", "count"),
    ("graphs.from_json_dict.total_s", "s"),
    ("qasst.to_json_dict.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("qasst_ops.lc_propagate.calls", "count"),
    ("qasst_ops.lc_propagate.total_s", "s"),
    ("qasst_ops.extend.calls", "count"),
    ("qasst_ops.extend.total_s", "s"),
    ("qasst_ops.induced_qasst.calls", "count"),
    ("qasst_ops.induced_qasst.total_s", "s"),
    ("qasst_ops.induced_qasst.self_s", "s"),
    ("qasst.reconstruct.calls", "count"),
    ("qasst.reconstruct.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("mem.peak_alloc_mb", "MB"),
)
# Ratios of two counters: metric -> (numerator, denominator).
COUNT_RATIOS = {
    "orbit.new_member_ratio": ("orbit.new_members", "orbit.lc_applications"),
    "orbit.repeat_share": ("orbit.repeated_members", "orbit.members"),
}


def load_lcsplit():
    """Import ``lcsplit`` afresh and return its modules as one namespace."""
    for name in [m for m in sys.modules if m == "lcsplit" or m.startswith("lcsplit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("lcsplit")
    return SimpleNamespace(**{m: importlib.import_module(f"lcsplit.{m}") for m in LCSPLIT_MODULES})


def probe_seconds() -> float:
    """Time a fixed integer loop, to follow the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class SetUp:
    workload: object
    generate_s: float  # making the first block's inputs, not part of setup_s
    times: list[float]
    probes: list[float]

    @property
    def scaled_s(self) -> float:
        return PROBE_REF_S / statistics.median(self.probes) * statistics.median(self.times)


def set_up(cls, seed: int, workdir: str) -> SetUp:
    """Generate the first block, then import and load it ``SETUP_REPEATS`` times.

    Generation does not use ``lcsplit``, so it is the same whatever code is
    measured and is kept out of the set-up times.
    """
    start = time.perf_counter()
    first = cls(None, seed, workdir).inputs(0)
    generate_s = time.perf_counter() - start
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe_seconds())
        start = time.perf_counter()
        workload = cls(load_lcsplit(), seed, workdir)
        workload.load(first)
        times.append(time.perf_counter() - start)
    workload.blocks[0] = first
    return SetUp(workload, generate_s, times, probes)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    digest: object = field(default_factory=hashlib.sha256)
    op_time: float = 0.0
    probes: list[float] = field(default_factory=list)
    peak_alloc: int = 0

    @property
    def scale(self) -> float:
        """Factor from this pass's times to times at the probe's reference speed."""
        return PROBE_REF_S / statistics.median(self.probes)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(c for label, c in self.failures.items() if not label.startswith(KNOWN_DEFECT))


def measure(workload, max_ops: int, budget_s: float = math.inf,
            tracer: Tracer | None = None, track_alloc: bool = False, deadline: float = math.inf) -> Pass:
    """Run ops block by block, checking each one after it is timed.

    Stops when ``max_ops`` ops have run, when the ops' summed time reaches
    ``budget_s``, when ops plus checks have taken ``WALL_FACTOR * budget_s``
    of wall time, or at ``deadline``.
    """
    result = Pass()
    clock = time.perf_counter
    deadline = min(deadline, clock() + WALL_FACTOR * budget_s)
    result.probes.append(probe_seconds())
    last_probe = clock()
    b = 0
    while True:
        block = workload.block(b)
        workload.start_block(block)
        # Keep the benchmark's own inputs out of the collector's way, so a
        # garbage collection during an op costs the same in every block.
        gc.collect()
        gc.freeze()
        for op in block.ops:
            if result.op_time >= budget_s or result.ops == max_ops:
                return result
            if clock() > deadline:
                return result
            if track_alloc:
                tracemalloc.reset_peak()
            if tracer is not None:
                tracer.active = True
            error = output = None
            start = clock()
            try:
                output = workload.run(op)
            except Exception as exc:  # a raising op is a failed op; the run goes on
                error = exc
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
            if track_alloc:
                result.peak_alloc = max(result.peak_alloc, tracemalloc.get_traced_memory()[1])
            result.latencies.append(elapsed)
            result.op_time += elapsed
            result.digest.update(op.desc.encode() + b"\n")
            label = workload.verdict(op, output, error)
            if clock() - last_probe >= PROBE_INTERVAL_S:
                result.probes.append(probe_seconds())
                last_probe = clock()
            if label is not None:
                result.failures[label] = result.failures.get(label, 0) + 1
        b += 1


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, run: Pass, scale: float) -> dict[str, float]:
    """End-to-end metrics of a run, with every time of the run multiplied by ``scale``.

    ``ops_per_s`` is the run's ops over their summed time.  Every run of a
    seed makes the same ops, so it weighs the dear ops of a workload alike.
    """
    lat = run.latencies
    return {
        "setup_s": setup_s,
        "ops_per_s": run.ops / math.fsum(lat) / scale,
        "op_p50_ms": scale * 1e3 * statistics.median(lat),
        "op_p90_ms": scale * 1e3 * percentile(lat, 90),
        "ok_frac": (run.ops - run.failed) / run.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, untraced: Pass, traced: Pass, peak_alloc: int):
    """Per-layer values, and the span names no longer present in the code."""
    values, absent = {}, []
    for name, _ in PER_LAYER:
        if name in COUNT_RATIOS:
            num, den = COUNT_RATIOS[name]
            values[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
        elif name == "trace.overhead_frac":
            base = untraced.scale * math.fsum(untraced.latencies[:traced.ops])
            values[name] = traced.scale * traced.op_time / base - 1.0
        elif name == "mem.peak_alloc_mb":
            values[name] = peak_alloc / 2**20
        elif name.rsplit(".", 1)[1] in SPAN_STATS:
            span, stat = name.rsplit(".", 1)
            value = tracer.value(span, stat)
            if value is None:
                absent.append(span)
                value = 0
            values[name] = value
        else:
            values[name] = tracer.counts[name]
    return values, sorted(set(absent))


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} {value!r} {unit}{'  # ' + note if note else ''}")


def describe_pass(label: str, run: Pass) -> None:
    print(f"# {label}: {run.ops} ops in {run.op_time:.3f} s of op time,"
          f" {run.failed} failed ({run.unexpected} unexpected), ops digest {run.digest.hexdigest()[:16]},"
          f" median of {len(run.probes)} probes {1e3 * statistics.median(run.probes):.3f} ms")
    for failure, count in sorted(run.failures.items()):
        print(f"#   failure x{count}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lcsplit", "__init__.py")):
        print(f"perfbench: no lcsplit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    deadline = time.perf_counter() + WALL_LIMIT_S
    cls = WORKLOADS[args.workload]
    ops = max(1, round(args.seconds * cls.OPS_PER_S))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.join(ROOT, "perfbench"))
    try:
        setup = set_up(cls, args.seed, workdir)
        workload = setup.workload
        print(f"# workload {cls.name} seed {args.seed} seconds {args.seconds} trace {args.trace}: {ops} ops")
        print(f"# why: {cls.why}")
        print(f"# inputs digest (first block, {len(workload.block(0).ops)} ops): {workload.block(0).digest()}")
        print(f"# first block generated in {setup.generate_s:.4f} s (not part of setup_s)")
        print(f"# setup times (s): {', '.join(f'{t:.4f}' for t in setup.times)};"
              f" median probe {1e3 * statistics.median(setup.probes):.3f} ms")
        if args.trace:
            untraced = measure(workload, max(1, ops // 2), deadline=deadline)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(workload, untraced.ops, tracer=tracer, deadline=deadline)
            tracemalloc.start()
            try:
                alloc = measure(workload, untraced.ops, budget_s=args.seconds / 4,
                                track_alloc=True, deadline=deadline)
            finally:
                tracemalloc.stop()
            describe_pass("untraced pass", untraced)
            describe_pass("traced pass", traced)
            describe_pass("allocation pass (tracemalloc on)", alloc)
            metrics, absent = per_layer(tracer, untraced, traced, alloc.peak_alloc)
            units = dict(PER_LAYER)
            if absent:
                print(f"# absent spans (reported as 0): {', '.join(absent)}")
            runs = (untraced, traced, alloc)
            same = traced.failures == untraced.failures
        else:
            run = measure(workload, ops, deadline=deadline)
            describe_pass("run", run)
            metrics = end_to_end(setup.scaled_s, run, run.scale)
            units = dict(END_TO_END)
            report("fail_frac", run.failed / run.ops, "ratio", f"{run.failed} of {run.ops} ops")
            for name, value in end_to_end(statistics.median(setup.times), run, 1.0).items():
                if units[name] in ("s", "ms", "1/s"):
                    print(f"# unscaled {name} {value!r} {units[name]}")
            runs, same = (run,), True
            untraced = run
        for name, value in metrics.items():
            note = f"{untraced.ops} samples" if name in ("op_p50_ms", "op_p90_ms") else ""
            report(name, value, units[name], note)
        if untraced.ops < (max(1, ops // 2) if args.trace else ops):
            print(f"# cut at the {WALL_LIMIT_S:.0f}-s wall-time limit: {untraced.ops} ops attempted")
        correct = same and all(r.unexpected == 0 for r in runs)
        print(json.dumps({
            "correct": correct,
            "attempted": untraced.ops,
            "failed": untraced.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
