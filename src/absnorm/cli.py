"""Command-line front end.

Subcommands: ``mu`` (certified bounds), ``sign-equiv`` (witness or
refuting cycle), ``growth`` (normalized growth sequence and verdict) and
``demo`` (the built-in fixture suite).  Matrices are read from a file or
stdin ("-") either in the shared JSON schema or as a whitespace grid of
real numbers, one row per line.

Exit codes: 0 success, 1 demo fixture failure, 2 invalid input,
3 computational failure (non-convergence, capacity or out of memory).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bounds import (
    GrowthQuery,
    bounds_report_to_json,
    check_growth_condition,
    mu_bounds,
)
from .diagonals import _letter_to_json
from .errors import AbsnormError, DimensionError
from .extremal import build_norm, contraction_check, verify_norm_axioms
from .matrices import (
    Matrix,
    induced_norm,
    matrix_from_json,
    spectral_norm,
    spectral_radius,
)
from .perron import nonneg_spectral_radius, optimal_weighted_l1
from .signequiv import EquivalenceWitness, sign_equivalent_to_abs

__all__ = ["main", "cmd_mu", "cmd_sign_equiv", "cmd_growth", "cmd_demo"]

EXIT_OK = 0
EXIT_FIXTURE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_COMPUTE_ERROR = 3


def _threads(args) -> int:
    if args.threads < 0:
        raise ValueError(f"--threads must be 0 (all cores) or more, got {args.threads}")
    return args.threads or os.cpu_count() or 1


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_matrix(path: str) -> Matrix:
    """Read a matrix from a file or stdin, JSON schema or whitespace grid."""
    text = _read_input(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return matrix_from_json(json.loads(text))
    rows = [[float(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix input")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError(
            f"grid input must be square, got {n} rows of lengths {[len(r) for r in rows]}"
        )
    return Matrix("real", np.array(rows))


def _fields(payload, keys):
    """``key = value`` text lines of ``keys``, padded to the longest, lists in JSON."""
    width = max(map(len, keys))
    text = {k: json.dumps(v) if isinstance(v, list) else v for k, v in payload.items()}
    return [f"{k:<{width}} = {text[k]}" for k in keys]


def _emit(args, lines, payload):
    if args.fmt == "json":
        print(json.dumps(payload))
    else:
        seed = f"  seed={args.seed}" if "seed" in args else ""
        print(f"# absnorm {args.command}{seed}")
        for line in lines:
            print(line)


def cmd_mu(args: argparse.Namespace) -> int:
    m = load_matrix(args.input)
    report = mu_bounds(
        m,
        max_depth=args.depth,
        grid_q=args.grid_q,
        prune_delta=args.prune_delta,
        tol=args.tol,
        threads=_threads(args),
    )
    payload = bounds_report_to_json(report)
    keys = ("lower", "upper", "exact", "shortcut", "witness", "depth", "nodes", "grid_q",
            "upper_heuristic")
    _emit(args, _fields(payload, keys), payload)
    return EXIT_OK


def cmd_sign_equiv(args: argparse.Namespace) -> int:
    m = load_matrix(args.input)
    result = sign_equivalent_to_abs(m)
    if isinstance(result, EquivalenceWitness):
        payload = {
            "verdict": "sign_equivalent",
            # Each side as given: scaling either side alone by a unit
            # would break A = left |A| right.
            "left": _letter_to_json(result.left),
            "right": _letter_to_json(result.right),
        }
    else:
        payload = {
            "verdict": "not_sign_equivalent",
            "cycle": [[kind, idx] for kind, idx in result.cycle],
            "phase_product": [result.phase_product.real, result.phase_product.imag],
        }
    _emit(args, _fields(payload, tuple(payload)), payload)
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    m = load_matrix(args.input)
    query = GrowthQuery(eps=args.eps, m=args.depth, level=args.level)
    report = check_growth_condition(m, query, grid_q=args.grid_q, threads=_threads(args))
    payload = {
        "verdict": report.verdict,
        "threshold": report.threshold,
        "depth": report.depth,
        "sequence": list(report.sequence),
    }
    _emit(args, _fields(payload, ("verdict", "threshold", "sequence")), payload)
    return EXIT_OK


def _demo_fixtures(args):
    """The built-in example suite; each entry returns (passed, detail)."""
    threads = _threads(args)
    sharp = Matrix("real", np.array([[1.0, 1.0], [-1.0, -1.0]]))
    hadamard = Matrix("real", np.array([[1.0, 1.0], [1.0, -1.0]]))

    def corollary_matrix():
        rho = spectral_radius(sharp)
        nrm = spectral_norm(sharp)
        rho_abs = nonneg_spectral_radius(np.abs(sharp.arr)).rho
        ok = abs(rho) <= 1e-9 and abs(nrm - 2) <= 1e-9 and abs(rho_abs - 2) <= 1e-9
        return ok, f"rho(A)={rho:.3g} ||A||_2={nrm:.12g} rho(|A|)={rho_abs:.12g}"

    def sharp_mu():
        fast = mu_bounds(sharp, max_depth=1, threads=threads)
        slow = mu_bounds(sharp, max_depth=1, threads=threads, use_shortcut=False)
        ok = (
            fast.shortcut == "sign_equivalent"
            and abs(fast.lower - 2) <= 1e-9
            and abs(fast.upper - 2) <= 1e-9
            and abs(slow.lower - 2) <= 1e-9
            and abs(slow.upper - 2) <= 1e-9
        )
        return ok, f"shortcut [{fast.lower:.10g}, {fast.upper:.10g}] generic [{slow.lower:.10g}, {slow.upper:.10g}]"

    def strict_gap():
        report = mu_bounds(hadamard, max_depth=1, threads=threads)
        refuted = not isinstance(sign_equivalent_to_abs(hadamard), EquivalenceWitness)
        root2 = float(np.sqrt(2.0))
        ok = (
            refuted
            and report.shortcut == "none"
            and abs(report.lower - root2) <= 1e-9
            and abs(report.upper - root2) <= 1e-9
        )
        return ok, f"mu pinched to {report.upper:.12g} < rho(|A|) = 2"

    def nonneg_equalities():
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(2, 6))
            b = rng.random((n, n))
            report = mu_bounds(b, max_depth=2, threads=threads)
            rho = nonneg_spectral_radius(b).rho
            worst = max(worst, abs(report.lower - rho), abs(report.upper - rho))
            if report.shortcut != "nonnegative" or not report.exact:
                return False, "missing nonnegative shortcut"
            weights = optimal_weighted_l1(b, eps=1e-3)
            if induced_norm(b, weights) > rho + 1e-3 + 1e-9:
                return False, "weighted l1 certificate failed"
        return True, f"10 random nonnegative matrices, worst |mu - rho| = {worst:.3g}"

    def extremal_norm():
        trials = min(args.trials, 1000)
        norm = build_norm(sharp, c=2.1, m=6)
        axioms = verify_norm_axioms(norm, trials=trials, seed=args.seed)
        contraction = contraction_check(norm, trials=min(trials, 200), seed=args.seed)
        ok = axioms.passed and contraction.passed and contraction.max_empirical_ratio <= 2.1
        return ok, f"axioms ok, max induced ratio {contraction.max_empirical_ratio:.6g} <= 2.1"

    def growth_verdicts():
        growing = check_growth_condition(
            sharp, GrowthQuery(eps=None, m=args.depth, level=0.5), threads=threads
        )
        bounded = check_growth_condition(
            sharp, GrowthQuery(eps=None, m=args.depth, level=2.5), threads=threads
        )
        seq = growing.sequence
        ratios_ok = all(abs(seq[i + 1] / seq[i] - 4) <= 1e-6 for i in range(len(seq) - 1))
        ok = growing.verdict == "growing" and bounded.verdict == "bounded" and ratios_ok
        return ok, f"c=0.5 {growing.verdict} (ratio 4), c=2.5 {bounded.verdict}"

    return [
        ("corollary-matrix-spectra", corollary_matrix),
        ("sharp-mu-equals-two", sharp_mu),
        ("strict-gap-below-abs-radius", strict_gap),
        ("nonnegative-equalities", nonneg_equalities),
        ("extremal-norm-construction", extremal_norm),
        ("growth-verdicts", growth_verdicts),
    ]


def cmd_demo(args: argparse.Namespace) -> int:
    results = []
    for name, fixture in _demo_fixtures(args):
        passed, detail = fixture()
        results.append({"name": name, "passed": passed, "detail": detail})
    all_passed = all(r["passed"] for r in results)
    payload = {"seed": args.seed, "fixtures": results, "passed": all_passed}
    lines = [
        f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: {r['detail']}" for r in results
    ]
    lines.append(f"overall = {'PASS' if all_passed else 'FAIL'}")
    _emit(args, lines, payload)
    return EXIT_OK if all_passed else EXIT_FIXTURE_FAILURE


# Each flag once; every subcommand takes only the flags its command reads.
_FLAGS = {
    "--depth": dict(type=int, default=6, help="maximum word depth (default 6)"),
    "--grid-q": dict(type=int, default=2,
                     help="phase grid order; >2 switches to complex-grid semantics (default 2)"),
    "--prune-delta": dict(type=float, default=1e-3,
                          help="accepted for compatibility; has no effect (default 1e-3)"),
    "--tol": dict(type=float, default=1e-9,
                  help="exactness tolerance, relative to max|a_ij| below 1 (default 1e-9)"),
    "--trials": dict(type=int, default=1000, help="random trials for audits (default 1000)"),
    "--threads": dict(type=int, default=0, help="worker threads; 0 means all cores"),
    "--eps": dict(type=float, default=None, help="margin above rho(A) defining the threshold"),
    "--level": dict(type=float, default=None, help="explicit threshold overriding rho(A)+eps"),
    "--seed": dict(type=int, default=0, help="seed for the demo's random draws (default 0)"),
    "--format": dict(choices=("text", "json"), default="text", dest="fmt",
                     help="output format (default text)"),
}

_SUBCOMMANDS = (
    ("mu", cmd_mu, "certified two-sided bounds on mu(A)", True,
     ("--depth", "--grid-q", "--prune-delta", "--tol", "--threads")),
    ("sign-equiv", cmd_sign_equiv, "decide sign equivalence of A to |A|", True, ()),
    ("growth", cmd_growth, "normalized product-growth sequence and verdict", True,
     ("--depth", "--grid-q", "--threads", "--eps", "--level")),
    ("demo", cmd_demo, "run the built-in example suite", False,
     ("--depth", "--trials", "--threads", "--seed")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared, so no caller may change it;
    its handlers read the module's globals when they run."""
    parser = argparse.ArgumentParser(
        prog="absnorm",
        description="Certified bounds on the minimal induced absolute norm of a matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, needs_input, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if needs_input:
            p.add_argument("input", help="matrix file (JSON schema or whitespace grid), or - for stdin")
        for flag in flags + ("--format",):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    except (DimensionError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AbsnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
