#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of absnorm.

Usage, from the repository root:

    python3 bench/run.py --workload {search,certify,norm_eval} \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` times whole passes over the workload's job list for about
``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs a traced pass between two untraced ones,
then the layer probes and the thread probe, and reports the per-layer
metrics.  Every
output is checked on every pass.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
bench/README.md for the definitions.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 before printing a result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("search", "certify", "norm_eval")
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 60
MB = float(1 << 20)

# One BLAS thread: the library's own ``threads`` argument is the only
# parallelism, and it is 1 everywhere except the CLI and thread probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class ProgramMissing(Exception):
    pass


def _import_program(tracer):
    """Import absnorm from ``src/``, wrapping numpy's kernels first when tracing."""
    if tracer is not None:
        tracer.install_kernels()
    if not (SRC / "absnorm" / "__init__.py").is_file():
        raise ProgramMissing(f"no absnorm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import absnorm
    import absnorm.cli

    if Path(absnorm.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"absnorm imported from {absnorm.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install_layers()


def setup(workload, seed, tracer=None):
    """``import absnorm`` plus seeded input generation; returns (seconds, inputs)."""
    t0 = time.perf_counter()
    _import_program(tracer)
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    return time.perf_counter() - t0, inputs


def setup_samples(args, first):
    """The in-process setup time and SETUP_SAMPLES - 1 fresh-process repeats."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs jobs: times (and traces) each call, then checks its output untimed."""

    def __init__(self, ledger, tracer=None):
        self.ledger = ledger
        self.tracer = tracer
        self.busy = 0.0

    def step(self, name, call, check):
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            with tracer.job_scope(name) if tracer else nullcontext():
                out = call()
        except Exception as exc:  # a raised job is a failed check, not a crash
            self.busy += time.perf_counter() - t0
            self.ledger.check(name, False, f"raised {type(exc).__name__}: {exc}")
            return None
        self.busy += time.perf_counter() - t0
        with tracer.paused() if tracer else nullcontext():
            try:
                check(self.ledger, out)
            except Exception as exc:
                self.ledger.check(f"{name}.check", False, f"{type(exc).__name__}: {exc}")
        return out


def one_pass(workloads, workload, inputs, runner):
    """Run the job list once; returns the time spent inside job calls."""
    before = runner.busy
    workloads.PASSES[workload](inputs, runner.step)
    return runner.busy - before


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, inputs, workloads, ledger, setup_first):
    runner = Runner(ledger)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(passes) <= args.seconds:
        passes.append(one_pass(workloads, args.workload, inputs, runner))
    setups = setup_samples(args, setup_first)
    gaps = ledger.gaps or [0.0]  # empty only when every interval job raised
    print(f"# passes={len(passes)} pass_s={passes} setup_s={setups}")
    return {
        "wall_s": metric(statistics.median(passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "gap_rel_mean": metric(statistics.fmean(gaps), "1"),
        "gap_rel_max": metric(max(gaps), "1"),
        "fail_rate": metric(len(ledger.failures) / ledger.attempted, "1"),
    }


def per_layer(args, inputs, workloads, ledger, tracer):
    import spans

    def plain_pass():
        return one_pass(workloads, args.workload, inputs, Runner(ledger))

    # Untraced passes before and after the traced one, so that warm-up and
    # drift of the host do not land in the overhead.
    before = plain_pass()
    runner = Runner(ledger, tracer)
    tracer.active = True
    traced = one_pass(workloads, args.workload, inputs, runner)
    tracer.active = False
    after = plain_pass()
    tracer.active = True
    workloads.layer_probes(inputs, runner.step)
    tracer.active = False
    speedup = workloads.thread_probe(inputs, ledger)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return layer_metrics(spans, tracer.spans, speedup, traced - (before + after) / 2)


def layer_metrics(spans, recs, thread_speedup, trace_overhead):
    self_s = spans.self_times(recs)
    in_mu = spans.within(recs, "bounds.mu_bounds")

    def total(*names, where=None):
        return sum(t for s, t in zip(recs, self_s)
                   if s.name in names and (where is None or where(s)))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in recs if s.name == name)

    def median_call(names, job):
        durations = [s.end - s.start for s in recs if s.name in names and s.job == job]
        return statistics.median(durations) if durations else 0.0

    nodes = attr_sum("bounds.mu_bounds", "nodes")
    eig_in_mu = sum(s.attrs["matrices"] for s, flag in zip(recs, in_mu)
                    if flag and s.name == "numpy.eigvals")
    einsum_bounds = [s.attrs["bytes"] for s in recs if s.name == "numpy.einsum"
                     and s.parent >= 0 and recs[s.parent].name.startswith("bounds.")]
    enumerate_names = ("diagonals.enumerate_sign_diagonals", "diagonals.enumerate_phase_diagonals")
    enum_jobs = sorted({s.job for s in recs if s.name in enumerate_names
                        and s.job and s.job.startswith("probe.enumerate.")})
    cli_calls = [t for s, t in zip(recs, self_s) if s.name == "cli.main"]

    out = {
        "bounds.lower.s": metric(total("bounds.mu_lower_bound"), "s"),
        "bounds.upper.s": metric(total("bounds.mu_upper_bound"), "s"),
        "bounds.nodes": metric(nodes, "count"),
        "bounds.eig_per_node": metric(eig_in_mu / nodes if nodes else 0.0, "1"),
        "bounds.frontier_mb": metric(max(einsum_bounds, default=0) / MB, "MB"),
        "bounds.growth.s": metric(total("bounds.check_growth_condition"), "s"),
        "bounds.shortcut.s": metric(
            total("bounds.mu_bounds", where=lambda s: s.attrs.get("shortcut", "none") != "none"), "s"),
        "bounds.thread_speedup": metric(thread_speedup, "1"),
    }
    for name, keys in (("eigvals", ("s", "calls", "matrices")), ("svd", ("s", "matrices")),
                       ("solve", ("s", "calls")), ("einsum", ("s", "mb"))):
        calls = [s for s in recs if s.name == f"numpy.{name}"]
        values = {
            "s": (sum(s.end - s.start for s in calls), "s"),
            "calls": (len(calls), "count"),
            "matrices": (sum(s.attrs["matrices"] for s in calls), "count"),
            "mb": (sum(s.attrs["bytes"] for s in calls) / MB, "MB"),
        }
        for key in keys:
            out[f"numpy.{name}.{key}"] = metric(*values[key])
    out.update({
        "diagonals.enumerate.s": metric(
            sum(median_call(enumerate_names, job) for job in enum_jobs), "s"),
        "diagonals.letters": metric(
            sum(attr_sum(name, "letters") for name in enumerate_names), "count"),
        "signequiv.s": metric(total("signequiv.sign_equivalent_to_abs", "signequiv.is_nonnegative"), "s"),
        "signequiv.edges": metric(attr_sum("signequiv.sign_equivalent_to_abs", "edges"), "count"),
        "perron.rho.s": metric(total("perron.nonneg_spectral_radius"), "s"),
        "perron.iterations": metric(attr_sum("perron.nonneg_spectral_radius", "iterations"), "count"),
        "perron.l1.s": metric(total("perron.optimal_weighted_l1"), "s"),
        "extremal.build.s": metric(total("extremal.build_norm"), "s"),
        "extremal.eval.s": metric(
            median_call(("extremal.eval_norm",), "probe.eval.real")
            + median_call(("extremal.eval_norm",), "probe.eval.complex"), "s"),
        "extremal.eval.total_s": metric(total("extremal.eval_norm"), "s"),
        "extremal.eval.calls": metric(sum(s.name == "extremal.eval_norm" for s in recs), "count"),
        "extremal.axioms.s": metric(total("extremal.verify_norm_axioms"), "s"),
        "extremal.contraction.s": metric(total("extremal.contraction_check"), "s"),
        "cli.overhead_s": metric(statistics.fmean(cli_calls) if cli_calls else 0.0, "s"),
        "trace.overhead_s": metric(trace_overhead, "s"),
    })
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: print one setup time and exit")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    try:
        setup_first, inputs = setup(args.workload, args.seed, tracer)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_first))
        return 0

    import checks
    import workloads

    ledger = checks.Ledger()
    if args.trace:
        metrics = per_layer(args, inputs, workloads, ledger, tracer)
    else:
        metrics = end_to_end(args, inputs, workloads, ledger, setup_first)

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    counts = Counter(name for name, _ in ledger.failures)
    for name, detail in dict(ledger.failures).items():
        known = " (known defect, ROADMAP item 1)" if name in checks.KNOWN_FAILING else ""
        print(f"FAILED {name} x{counts[name]}{known}: {detail}")
    print(f"# failed/attempted = {len(ledger.failures)}/{ledger.attempted}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
