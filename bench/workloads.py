"""Seeded inputs and job lists of the three workloads.

Every input is a fixed base instance, drawn once from a fixed generator,
posed in coordinates drawn from ``--seed``: a random permutation
similarity, random unimodular diagonal scalings on both sides (signs, or
powers of i on the q = 4 grid), and a random transposition.  mu(A),
rho(A), rho(|A|), the multiset of word values at every search depth and
the Perron iteration are all invariant under these maps, and the scalings
are exact in floating point.  So each seed poses the same problems in
different floating-point data: the checks see new inputs, while the
amount of work and the certified gaps stay comparable across seeds.
Independent N(0,1) draws per seed made the mean relative gap of
``search`` spread by 43% of its median (quartiles over 10 seeds), more
than any allowed bound on that metric.

A pass is a list of jobs run through ``step(name, call, check)``: the
call is timed (and traced), the check is not.
"""

import io
import json
import math
import sys
import time
from contextlib import redirect_stdout

import numpy as np

import absnorm
import absnorm.cli
import checks

BASE_SEED = 20210331
PRUNE_DELTA = 1e-3
C_FACTOR = 1.05
SQRT2 = math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])
CYCLIC = np.array([[0.0, 2.0], [1.0, 0.0]])

# (name, n, depth, grid_q) of the generic-engine jobs of ``search``.  Each
# takes about 1 s or less uncontended, so a run repeats it several times
# (see run.py).
SEARCH_JOBS = (
    ("search.n3d8", 3, 8, 2),
    ("search.n4d6", 4, 6, 2),
    ("search.n5d4", 5, 4, 2),
    ("search.n6d3", 6, 3, 2),
    ("search.c3d4q4", 3, 4, 4),
)
# The (4,6) job runs through in-process ``absnorm mu`` calls.  Its deepest
# level has 8^6 = 262144 products, four of the library's 65536-row chunks,
# so --threads 2 really splits the work; it is also the largest level of
# the workload (32 MB) and the thread probe's job.
CLI_JOB, CLI_DEPTH = "search.n4d6", 6
THREAD_PROBE_JOB, THREAD_PROBE_DEPTH = CLI_JOB, CLI_DEPTH

CERTIFY_ROUNDS = 20
CERTIFY_N = 200
CERTIFY_BLOCKS = 4
L1_EPS = 1e-3

NORM_DEPTH = 4  # depth of the mu_bounds run that sets c (build_norm cross-checks at 4)
NORM_REAL_M, NORM_REAL_AXIOMS, NORM_REAL_CONTRACTION = 6, 300, 60
NORM_COMPLEX_M, NORM_COMPLEX_AXIOMS, NORM_COMPLEX_CONTRACTION = 4, 20, 5
GROWTH_M, GROWTH_EPS = 7, 0.1

ENUM_ALPHABETS = ((2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 4))  # (n, q) used by the workloads
PROBE_REPEATS = 9

# Independent generator streams, so one group's draws never shift another's.
_SEARCH, _CERTIFY, _NORM, _PROBE = range(4)


def _pose(rng, base, q=None, transpose=True):
    """``base`` in random coordinates.

    Returns ``(P D1 base D2 P^T, perm)``, transposed with probability 1/2
    when ``transpose`` is set.  ``q=None`` skips the diagonal scalings;
    q=2 uses signs, q=4 powers of i.
    """
    n = base.shape[0]
    perm = rng.permutation(n)
    a = base
    if q is not None:
        units = np.array([1.0, -1.0]) if q == 2 else np.array([1, 1j, -1, -1j])
        left = units[rng.integers(0, len(units), n)]
        right = units[rng.integers(0, len(units), n)]
        a = left[:, None] * a * right[None, :]
    a = a[perm][:, perm]
    if transpose and rng.random() < 0.5:
        a = a.T
    return np.ascontiguousarray(a), perm


def _signs(rng, b):
    n = b.shape[0]
    return rng.choice((-1.0, 1.0), n)[:, None] * b * rng.choice((-1.0, 1.0), n)[None, :]


def _sparse_nonneg(rng, n):
    """Irreducible sparse nonnegative matrix whose leading 2x2 block is positive."""
    b = rng.random((n, n)) * (rng.random((n, n)) < 4.0 / n)
    b += np.roll(np.eye(n), 1, axis=1) * (rng.random(n) + 0.5)
    b[:2, :2] = rng.random((2, 2)) + 0.5
    return b


def _block_cyclic(rng, n, k):
    """Nonnegative matrix of period k: positive blocks only at (i, i+1 mod k)."""
    size = n // k
    c = np.zeros((n, n))
    for blk in range(k):
        nxt = (blk + 1) % k
        c[blk * size:(blk + 1) * size, nxt * size:(nxt + 1) * size] = rng.random((size, size))
    return c


def _matrix_text(a):
    return json.dumps(absnorm.matrix_to_json(absnorm.as_matrix(a)))


def make_inputs(workload, seed):
    """All inputs of ``workload`` for ``seed``; the probe inputs are shared."""
    def streams(group):
        return np.random.default_rng([BASE_SEED, group]), np.random.default_rng([seed, group])

    m = {"seed": seed}
    base, pose = streams(_SEARCH)
    for name, n, _, q in SEARCH_JOBS:
        b = base.standard_normal((n, n))
        if q > 2:
            b = b + 1j * base.standard_normal((n, n))
        m[name], _ = _pose(pose, b, q)
    m["cli.text"] = _matrix_text(m[CLI_JOB])

    base, pose = streams(_NORM)
    m["norm.real"], _ = _pose(pose, base.standard_normal((3, 3)), 2)
    z = base.standard_normal((3, 3)) + 1j * base.standard_normal((3, 3))
    m["norm.complex"], _ = _pose(pose, z, 4)
    m["norm.growth"], _ = _pose(pose, base.standard_normal((4, 4)), 2)

    base, pose = streams(_PROBE)
    m["probe.nonneg"], _ = _pose(pose, base.random((8, 8)))
    m["probe.signed"] = _signs(pose, m["probe.nonneg"])
    m["probe.vectors.real"] = [pose.standard_normal(3) for _ in range(PROBE_REPEATS)]
    m["probe.vectors.complex"] = [
        pose.standard_normal(3) + 1j * pose.standard_normal(3) for _ in range(PROBE_REPEATS)
    ]
    m["probe.cli.text"] = _matrix_text(m["norm.real"])

    if workload == "certify":
        # No transposition here: the weighted-l1 certificate of B^T is a
        # different norm from that of B, with a different gap.
        base, pose = streams(_CERTIFY)
        for r in range(CERTIFY_ROUNDS):
            b, perm = _pose(pose, _sparse_nonneg(base, CERTIFY_N), transpose=False)
            signed = _signs(pose, b)
            # Base index 0 sits at i0 after the permutation; flipping entry
            # (i0, i0) breaks the positive 4-cycle on base rows/columns 0, 1.
            i0 = int(np.flatnonzero(perm == 0)[0])
            refuted = signed.copy()
            refuted[i0, i0] = -refuted[i0, i0]
            m[f"certify.nonneg[{r}]"] = b
            m[f"certify.signed[{r}]"] = signed
            m[f"certify.refuted[{r}]"] = refuted
            m[f"certify.imprimitive[{r}]"], _ = _pose(
                pose, _block_cyclic(base, CERTIFY_N, CERTIFY_BLOCKS), transpose=False
            )
    return m


def run_cli(argv, stdin_text):
    """``absnorm.cli.main`` in process, with stdin and stdout replaced."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out):
            code = absnorm.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _mu_argv(depth, threads):
    return ["mu", "-", "--depth", str(depth), "--prune-delta", repr(PRUNE_DELTA),
            "--threads", str(threads), "--format", "json"]


def _certified_upper(report, a):
    """The upper bound build_norm trusts: the report's, or the Perron cap on grids."""
    if not report.upper_heuristic:
        return report.upper
    return absnorm.nonneg_spectral_radius(np.abs(a), tol=1e-10).rho + 1e-10


def search_pass(m, step):
    for name, _, depth, q in SEARCH_JOBS:
        if name == CLI_JOB:
            step(name,
                 lambda: [run_cli(_mu_argv(CLI_DEPTH, t), m["cli.text"]) for t in (1, 2)],
                 lambda led, runs: checks.cli_outputs(led, CLI_JOB, m[CLI_JOB], runs))
            continue
        a = m[name]
        step(name,
             lambda: absnorm.mu_bounds(a, max_depth=depth, grid_q=q,
                                       prune_delta=PRUNE_DELTA, threads=1),
             lambda led, r: checks.interval(led, name, a, r))
    scale_probes(step)


def certify_pass(m, step):
    for r in range(CERTIFY_ROUNDS):
        b, s = m[f"certify.nonneg[{r}]"], m[f"certify.signed[{r}]"]
        x, c = m[f"certify.refuted[{r}]"], m[f"certify.imprimitive[{r}]"]
        tag = f"[{r}]"
        step("certify.nonneg" + tag, lambda: absnorm.mu_bounds(b),
             lambda led, rep: checks.shortcut(led, "certify.nonneg" + tag, rep, "nonnegative", b))
        step("certify.signed" + tag, lambda: absnorm.mu_bounds(s),
             lambda led, rep: checks.shortcut(led, "certify.signed" + tag, rep, "sign_equivalent", b))
        step("certify.witness" + tag, lambda: absnorm.sign_equivalent_to_abs(s),
             lambda led, w: checks.witness_rebuilds(led, "certify.witness" + tag, s, w))
        step("certify.refuted" + tag, lambda: absnorm.sign_equivalent_to_abs(x),
             lambda led, w: checks.refuting_cycle(led, "certify.refuted" + tag, x, w))
        step("certify.imprimitive" + tag, lambda: absnorm.nonneg_spectral_radius(c),
             lambda led, p: checks.perron_bracket(led, "certify.imprimitive" + tag, p, c))
        step("certify.l1" + tag, lambda: absnorm.optimal_weighted_l1(b, eps=L1_EPS),
             lambda led, w: checks.weighted_l1(led, "certify.l1" + tag, w, b, L1_EPS))
    scale_probes(step)


def _build(step, prefix, a, grid_q, m_depth):
    """Bounds run that sets c = 1.05 * certified upper, then build_norm at c."""
    report = step(f"{prefix}.bounds",
                  lambda: absnorm.mu_bounds(a, max_depth=NORM_DEPTH, grid_q=grid_q,
                                            prune_delta=PRUNE_DELTA),
                  lambda led, r: checks.interval(led, f"{prefix}.bounds", a, r))
    if report is None:
        return None
    return step(f"{prefix}.build",
                lambda: absnorm.build_norm(a, c=C_FACTOR * _certified_upper(report, a),
                                           m=m_depth, grid_q=grid_q),
                lambda led, nm: led.check(f"{prefix}.build", not nm.c_below_certified_upper,
                                          f"c {nm.c!r} <= certified {nm.certified_upper!r}"))


def _norm_jobs(step, prefix, a, grid_q, m_depth, axioms, contraction, seed):
    norm = _build(step, prefix, a, grid_q, m_depth)
    if norm is None:
        return
    step(f"{prefix}.axioms", lambda: absnorm.verify_norm_axioms(norm, trials=axioms, seed=seed),
         lambda led, rep: led.check(f"{prefix}.axioms", rep.passed, repr(rep)))
    step(f"{prefix}.contraction",
         lambda: absnorm.contraction_check(norm, trials=contraction, seed=seed),
         lambda led, rep: led.check(f"{prefix}.contraction", rep.passed, repr(rep)))


def norm_eval_pass(m, step):
    _norm_jobs(step, "norm.real", m["norm.real"], 2, NORM_REAL_M,
               NORM_REAL_AXIOMS, NORM_REAL_CONTRACTION, m["seed"])
    _norm_jobs(step, "norm.complex", m["norm.complex"], 4, NORM_COMPLEX_M,
               NORM_COMPLEX_AXIOMS, NORM_COMPLEX_CONTRACTION, m["seed"])
    g = m["norm.growth"]
    step("norm.growth",
         lambda: absnorm.check_growth_condition(g, absnorm.GrowthQuery(eps=GROWTH_EPS, m=GROWTH_M)),
         lambda led, r: checks.growth(led, "norm.growth", g, r, GROWTH_EPS))
    scale_probes(step)


PASSES = {"search": search_pass, "certify": certify_pass, "norm_eval": norm_eval_pass}


def scale_probes(step):
    """Homogeneity probes of ROADMAP item 1; one check each, in every pass.

    mu(sH) = sqrt(2)|s| for the 2x2 Hadamard-sign matrix H, the growth
    sequence of sH at threshold s(sqrt(2) + 0.1) is (sqrt(2)/(sqrt(2)+0.1))^k
    exactly, and rho(s[[0,2],[1,0]]) = sqrt(2) s.
    """
    for s in (1e-200, 1.0, 1e100):
        a, mu = s * HADAMARD, s * SQRT2
        name = f"scale.mu_bounds@{s:.0e}"
        step(name, lambda: absnorm.mu_bounds(a, max_depth=4),
             lambda led, r: led.check(
                 name,
                 r.lower <= r.upper and r.lower <= mu * (1 + 1e-12) and r.upper >= mu * (1 - 1e-12),
                 f"[{r.lower!r}, {r.upper!r}] misses {mu!r}"))
        gname = f"scale.growth@{s:.0e}"
        ratio = SQRT2 / (SQRT2 + 0.1)
        step(gname,
             lambda: absnorm.check_growth_condition(a, absnorm.GrowthQuery(eps=0.1 * s, m=4)),
             lambda led, r: led.check(
                 gname,
                 r.verdict == "bounded"
                 and all(abs(g - ratio**k) <= 1e-9 * ratio**k for k, g in enumerate(r.sequence, 1)),
                 f"{r.verdict} {r.sequence}"))
    for s in (1e-12, 1.0, 1e12):
        pname = f"scale.perron@{s:.0e}"
        step(pname, lambda: absnorm.nonneg_spectral_radius(s * CYCLIC),
             lambda led, p: led.check(pname, abs(p.rho - s * SQRT2) <= 1e-8 * s * SQRT2,
                                      f"rho {p.rho!r} vs {s * SQRT2!r}"))


def layer_probes(m, step):
    """Small fixed calls that give every layer metric a value on every workload.

    Run only in the traced run, after the traced pass.
    """
    # Shallow, so that the probes' eigensolves stay small next to every
    # workload's own.
    for name, depth, q in (("search.n3d8", 6, 2), ("search.c3d4q4", 3, 4)):
        a = m[name]
        step(f"probe.lower.{name}",
             lambda: absnorm.mu_lower_bound(a, max_depth=depth, grid_q=q, threads=1),
             lambda led, out: led.check(f"probe.lower.{name}",
                                        out[0] >= led.rho(a) * (1 - checks.RHO_REL)))
        step(f"probe.upper.{name}",
             lambda: absnorm.mu_upper_bound(a, max_depth=depth, grid_q=q,
                                            prune_delta=PRUNE_DELTA, threads=1),
             lambda led, up: led.check(f"probe.upper.{name}",
                                       up >= led.rho(a) * (1 - checks.RHO_REL)))
    b, s = m["probe.nonneg"], m["probe.signed"]
    step("probe.shortcut.nonneg", lambda: absnorm.mu_bounds(b),
         lambda led, rep: checks.shortcut(led, "probe.shortcut.nonneg", rep, "nonnegative", b))
    step("probe.shortcut.signed", lambda: absnorm.mu_bounds(s),
         lambda led, rep: checks.shortcut(led, "probe.shortcut.signed", rep, "sign_equivalent", b))
    step("probe.l1", lambda: absnorm.optimal_weighted_l1(b, eps=L1_EPS),
         lambda led, w: checks.weighted_l1(led, "probe.l1", w, b, L1_EPS))

    for kind, q, m_depth in (("real", 2, NORM_REAL_M), ("complex", 4, NORM_COMPLEX_M)):
        a = m[f"norm.{kind}"]
        norm = _build(step, f"probe.{kind}", a, q, m_depth)
        if norm is None:
            continue
        for i, x in enumerate(m[f"probe.vectors.{kind}"]):
            step(f"probe.eval.{kind}", lambda: absnorm.eval_norm(norm, x),
                 lambda led, v: led.check(f"probe.eval.{kind}[{i}]",
                                          v >= float(np.linalg.norm(x)) * (1 - 1e-12)))
        step(f"probe.axioms.{kind}", lambda: absnorm.verify_norm_axioms(norm, trials=3, seed=0),
             lambda led, rep: led.check(f"probe.axioms.{kind}", rep.passed))
        step(f"probe.contraction.{kind}", lambda: absnorm.contraction_check(norm, trials=3, seed=0),
             lambda led, rep: led.check(f"probe.contraction.{kind}", rep.passed))

    for n, q in ENUM_ALPHABETS:
        name = f"probe.enumerate.{n}.{q}"
        size = q ** (n - 1)
        for _ in range(PROBE_REPEATS):
            step(name,
                 lambda: (absnorm.enumerate_sign_diagonals(n, quotient=True) if q == 2
                          else absnorm.enumerate_phase_diagonals(n, q, quotient=True)),
                 lambda led, out: led.check(name, len(out) == size))

    step("probe.cli", lambda: [run_cli(_mu_argv(NORM_DEPTH, 1), m["probe.cli.text"])],
         lambda led, runs: checks.cli_outputs(led, "probe.cli", m["norm.real"], runs,
                                              record_gap=False))


def thread_probe(m, led):
    """Wall time of the (4,6) search job at threads=1 over threads=2.

    Both reports must be identical.  Untraced; not an end-to-end metric
    because on two shared cores the threads=2 time spreads by about 35%.
    """
    a = m[THREAD_PROBE_JOB]
    times, reports = [], []
    for threads in (1, 2):
        t0 = time.perf_counter()
        reports.append(absnorm.mu_bounds(a, max_depth=THREAD_PROBE_DEPTH,
                                         prune_delta=PRUNE_DELTA, threads=threads))
        times.append(time.perf_counter() - t0)
    led.check("probe.threads.same_report", reports[0] == reports[1], "threads=2 report differs")
    return times[0] / times[1]
