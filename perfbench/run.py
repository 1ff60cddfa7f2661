"""ainfkit benchmark: drives `ainfkit.cli.main` in-process over one workload.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 60 --trace 0

One process, one client, closed loop: each op is the next `ainfctl`
invocation of the workload's fixed op list, sent when the previous one has
returned. Passes over the list repeat until `--seconds` have elapsed (two
passes at least, so that repeated reports can be compared byte for byte).
Every report goes through the oracle; an op fails on a wrong exit code, a
failed check, an exception escaping `cli.main`, or a report that differs
from the same op's report in an earlier pass.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs untraced
passes for a third of the time, then wraps each layer's public functions
(see tracing.py) and reports per-layer counters per traced pass, plus the
tracing overhead. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

Run from the repository root; the program is imported from ./src.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import SPANNED, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = [
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, each a per-pass value of the traced run. Suffixes:
# calls / total_s / self_s are summed counters divided by the number of
# traced passes; the ratios divide an observed count by the calls.
PER_LAYER = [
    "cli.main.self_s",
    "specio.load_spec.calls",
    "specio.load_spec.self_s",
    "specio.dump_document.self_s",
    "ainf.AInfAlgebra.init.calls",
    "ainf.AInfAlgebra.init.self_s",
    "ainf.flip_constant.total_s",
    "ainf.check_ainf.self_s",
    "ainf.ainf_defect.calls",
    "ainf.ainf_defect.self_s",
    "ainf.ainf_defect.nonzero_ratio",
    "signs.koszul_prefix_sign.calls",
    "ainf.eval_op.calls",
    "ainf.eval_op.self_s",
    "ainf.eval_op.zero_ratio",
    "ainf.mc_defect.total_s",
    "scalars.EnergyMonoid.enumerate.calls",
    "scalars.EnergyMonoid.enumerate.self_s",
    "scalars.EnergyMonoid.enumerate.elements",
    "scalars.EnergyMonoid.contains.calls",
    "scalars.EnergyMonoid.contains.total_s",
    "ainf.AInfAlgebra.beta_splits.calls",
    "ainf.AInfAlgebra.beta_splits.self_s",
    "scalars.NovikovElement.init.calls",
    "kunneth.check_subalgebra.total_s",
    "kunneth.check_commuting.total_s",
    "kunneth.box_product.total_s",
    "floer.scalar_cohomology.self_s",
    "floer.deformed_differential_matrix.self_s",
    "floer.hf_dimension.total_s",
    "floer.barcode.total_s",
    "poly.rational_matrix_rank.calls",
    "poly.rational_matrix_rank.self_s",
    "poly.matrix_rank_fraction_field.self_s",
    "poly.smith_normal_form.self_s",
    "isotopy.check_pseudoisotopy.total_s",
    "isotopy.isotopy_sums.calls",
    "isotopy.isotopy_sums.self_s",
    "isotopy.extend_one_level.total_s",
    "isotopy.check_commuting_isotopy.total_s",
    "isotopy.flip_isotopy_constant.total_s",
    "torus.appendix_suite.total_s",
    "torus.fiber_integrate.calls",
    "torus.fiber_integrate.self_s",
    "torus.pullback.calls",
    "torus.form_wedge.calls",
] + [f"layer.{layer}.self_s" for layer in SPANNED] + [
    "trace.overhead_ratio",
]

SETUP_REPEATS = 5


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def invoke(cli, argv):
    """One closed-loop op: (exit code or None, stdout text, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
            error = None
        except (Exception, SystemExit) as exc:  # counted as a failed op
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return rc, out.getvalue(), elapsed, error


class Loop:
    """Runs passes over an op list and keeps every sample and failure."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.pass_latencies = []
        self.per_item = {}
        self.pass_walls = []
        self.attempted = 0
        self.failures = []
        self.first_report = {}

    def one_pass(self, tracer=None):
        latencies = []
        self.pass_latencies.append(latencies)
        t0 = perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = self.attempted
            rc, text, elapsed, error = invoke(self.cli, op.argv)
            self.attempted += 1
            latencies.append(elapsed)
            self.per_item.setdefault(op.item, []).append(elapsed)
            reason = error or op.check(rc, text)
            if reason is None and self.first_report.setdefault(i, text) != text:
                reason = "report differs from an earlier pass"
            if reason is not None:
                self.failures.append(f"{' '.join(op.argv)}: {reason}")
        self.pass_walls.append(perf_counter() - t0)

    def run(self, seconds, tracer=None, min_passes=2):
        t0 = perf_counter()
        while True:
            self.one_pass(tracer)
            elapsed = perf_counter() - t0
            # Stop at the pass boundary nearest to `seconds`.
            if len(self.pass_walls) >= min_passes and \
                    elapsed + self.pass_walls[-1] / 2 >= seconds:
                return elapsed


def setup(workload, seed, workdir):
    """Build the workload's documents SETUP_REPEATS times; return the op list
    of the last build and the time of each build."""
    from workloads import WORKLOADS

    builds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        ops = WORKLOADS[workload](seed, workdir)
        builds.append(perf_counter() - t0)
    return ops, builds


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def print_items(loop, workload, seed):
    print(f"# host: nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} commit={git_commit()} "
          f"workload={workload} seed={seed}")
    print(f"# {'median ms':>10} {'n':>4}  command input")
    for item, samples in loop.per_item.items():
        print(f"  {statistics.median(samples) * 1000:10.1f} {len(samples):4d}  {item}")


def pass_deciles(loop):
    """The deciles of each pass's op latencies."""
    return [statistics.quantiles(lat, n=10, method="inclusive")
            for lat in loop.pass_latencies]


def end_to_end(loop, elapsed, setup_s):
    """Every timing is a mean over the whole timed loop. On a shared host the
    CPU speed can drift by +-20% over tens of seconds; a mean over the run
    follows that drift less than a median of a few passes, or of the few
    samples of the op that sits at a percentile. So the latency percentiles
    are taken within each pass, whose op list is fixed, and averaged over
    the passes."""
    deciles = pass_deciles(loop)
    return {
        "wall_s": elapsed / len(loop.pass_walls),
        "ops_per_s": loop.attempted / elapsed,
        "latency_p50_ms": statistics.fmean(d[4] for d in deciles) * 1000,
        "latency_p90_ms": statistics.fmean(d[8] for d in deciles) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, passes, overhead):
    raw = tracer.values()
    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = overhead
        elif kind in ("nonzero_ratio", "zero_ratio"):
            calls = raw.get(f"{base}.calls", 0)
            value = raw.get(f"{base}.observed", 0) / calls if calls else 0.0
        elif kind == "elements":
            value = raw.get(f"{base}.observed", 0) / passes
        else:
            value = raw.get(name, 0) / passes
        out[name] = value
    return out


def print_shares(tracer, passes, traced_wall):
    print(f"# layer self time per traced pass ({traced_wall:.3f} s), "
          "the ceiling on what a faster layer can save")
    for layer, self_s in sorted(tracer.layer_self().items(),
                                key=lambda kv: -kv[1]):
        print(f"  {layer:8s} {self_s / passes:9.4f} s  "
              f"{100 * self_s / passes / traced_wall:5.1f} %")


def run(workload, seed, seconds, trace, workdir, spans_path=None,
        start=None, ops_filter=None):
    """Run one workload and return the result object printed by main."""
    from ainfkit import cli

    start = PROCESS_START if start is None else start
    ops, builds = setup(workload, seed, workdir)
    if ops_filter is not None:
        ops = ops_filter(ops)
    # Process start to the first op, counting one (the median) build.
    setup_s = perf_counter() - start - sum(builds) + statistics.median(builds)
    loop = Loop(cli, ops)
    if not trace:
        elapsed = loop.run(seconds)
        print_items(loop, workload, seed)
        metrics = end_to_end(loop, elapsed, setup_s)
        beyond = sum(x > d[8] for lat, d in
                     zip(loop.pass_latencies, pass_deciles(loop)) for x in lat)
        print(f"# latency samples: {loop.attempted}, {beyond} beyond p90")
        print(f"# set-up {setup_s:.3f} s; builds "
              + " ".join(f"{b:.3f}" for b in builds))
        print(f"# {loop.attempted} ops in {len(loop.pass_walls)} passes of "
              f"{len(ops)}; fail_ratio = {len(loop.failures)}/{loop.attempted}; "
              "pass walls " + " ".join(f"{w:.3f}" for w in loop.pass_walls))
        units = dict(END_TO_END)
    else:
        # A third of the time untraced, as the reference for the overhead.
        loop.run(seconds / 3)
        untraced_walls = list(loop.pass_walls)
        untraced = statistics.median(untraced_walls)
        tracer = Tracer()
        tracer.install()
        try:
            loop.run(seconds - sum(untraced_walls), tracer, min_passes=1)
        finally:
            tracer.uninstall()
        traced_walls = loop.pass_walls[len(untraced_walls):]
        passes = len(traced_walls)
        traced = statistics.median(traced_walls)
        metrics = per_layer(tracer, passes, traced / untraced - 1)
        print_shares(tracer, passes, traced)
        print(f"# tracing overhead: traced pass {traced:.3f} s against "
              f"untraced {untraced:.3f} s; {len(tracer.spans)} spans kept, "
              f"{tracer.dropped} dropped")
        if spans_path is not None:
            tracer.write_spans(spans_path)
        units = {name: per_layer_unit(name) for name in PER_LAYER}
    for reason in loop.failures[:20]:
        print(f"# FAILED {reason}", file=sys.stderr)
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def use_checkout_sources():
    """Import ainfkit from this checkout's src/; False if it is not there."""
    if not (SRC / "ainfkit" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"run.py: no ainfkit sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    spans = None
    if args.trace:
        spans = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work,
                     spans_path=spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
