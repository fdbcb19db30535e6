"""Output checks that hold for every seed, and the ledger that counts them.

Each check compares a program output with an independent numpy
reference or with an exact identity; none depends on the particular
input drawn from the seed.  A check that fails, or a job that raises,
counts as one failed check.
"""

import json

import numpy as np

import absnorm

# Scale probes that fail on the code this benchmark was written against
# (ROADMAP item 1).  They are counted in ``failed`` and ``fail_rate``;
# only these may fail while the run still reports ``correct``.
KNOWN_FAILING = frozenset({
    "scale.mu_bounds@1e-200",
    "scale.mu_bounds@1e+100",
    "scale.growth@1e-200",
    "scale.growth@1e+100",
    "scale.perron@1e-12",
    "scale.perron@1e+12",
})

RHO_REL = 1e-12
PERRON_REL = 1e-8
WITNESS_REL = 1e-9
CAP_ABS = 1e-10


class Ledger:
    """Counts checks across the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.gaps = []
        self._rho = {}

    def rho(self, a):
        """Reference spectral radius, memoized because passes repeat inputs."""
        a = np.asarray(a)
        key = (a.shape, a.dtype.str, hash(a.tobytes()))
        if key not in self._rho:
            self._rho[key] = rho(a)
        return self._rho[key]

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))
        return ok

    @property
    def correct(self):
        return all(name in KNOWN_FAILING for name, _ in self.failures)


def rho(a):
    return float(np.abs(np.linalg.eigvals(np.asarray(a))).max())


def interval(led, name, a, report, record_gap=True):
    """Certificate checks on a generic-engine BoundsReport for matrix ``a``."""
    lo, up = report.lower, report.upper
    led.check(f"{name}.ordered", lo <= up, f"lower {lo!r} > upper {up!r}")
    r = led.rho(a)
    led.check(f"{name}.above_rho", lo >= r * (1 - RHO_REL), f"lower {lo!r} < rho(A) {r!r}")
    r_abs = led.rho(np.abs(a))
    led.check(
        f"{name}.below_rho_abs",
        up <= r_abs * (1 + RHO_REL) + CAP_ABS,
        f"upper {up!r} > rho(|A|) {r_abs!r}",
    )
    w = report.lower_witness
    value = rho(absnorm.word_product(a, w, terminal=True).arr) ** (1.0 / w.k)
    led.check(
        f"{name}.witness",
        abs(value - lo) <= WITNESS_REL * abs(lo),
        f"witness gives {value!r}, lower is {lo!r}",
    )
    if record_gap and up > 0:
        led.gaps.append((up - lo) / up)


def perron_value(led, name, value, b):
    r = led.rho(np.abs(b))
    led.check(
        f"{name}.perron",
        abs(value - r) <= PERRON_REL * r,
        f"rho {value!r} vs max|eig| {r!r}",
    )


def shortcut(led, name, report, kind, b):
    led.check(f"{name}.shortcut", report.shortcut == kind, f"shortcut {report.shortcut!r}")
    led.check(f"{name}.ordered", report.lower <= report.upper, "lower > upper")
    perron_value(led, name, report.upper, b)


def witness_rebuilds(led, name, a, found):
    ok = isinstance(found, absnorm.EquivalenceWitness)
    if ok:
        rebuilt = found.left.phases[:, None] * np.abs(a) * found.right.phases[None, :]
        ok = np.array_equal(rebuilt, a)
    led.check(f"{name}.rebuilds", ok, f"got {type(found).__name__}")


def refuting_cycle(led, name, a, found):
    """The cycle alternates rows and columns on the support and its
    alternating sign product (recomputed here) is not 1."""
    ok = isinstance(found, absnorm.InconsistencyCertificate)
    if ok:
        cyc = found.cycle
        kinds = [kind for kind, _ in cyc]
        ok = len(cyc) >= 4 and kinds == ["r", "c"] * (len(cyc) // 2)
    if ok:
        prod = 1.0
        for s in range(0, len(cyc), 2):
            i, j = cyc[s][1], cyc[s + 1][1]
            i_next = cyc[(s + 2) % len(cyc)][1]
            ok = ok and a[i, j] != 0 and a[i_next, j] != 0
            prod *= np.sign(a[i, j]) * np.sign(a[i_next, j])
        ok = ok and prod != 1 and abs(found.phase_product - prod) <= 1e-12
    led.check(f"{name}.refutes", ok, f"got {found!r}"[:200])


def perron_bracket(led, name, result, b):
    perron_value(led, name, result.rho, b)
    lo, hi = result.bracket
    r = led.rho(b)
    led.check(
        f"{name}.bracket",
        lo <= r * (1 + RHO_REL) and hi >= r * (1 - RHO_REL),
        f"bracket {result.bracket} misses {r!r}",
    )


def weighted_l1(led, name, norm, b, eps):
    """Induced weighted-l1 norm, computed directly: max_j (|B|^T w)_j / w_j.

    It is a certified upper bound on mu(B) = rho(B); its relative excess
    over rho(B) is recorded as this job's certified gap.
    """
    w = norm.w
    induced = float(((np.abs(b).T @ w) / w).max())
    r = led.rho(b)
    led.check(
        f"{name}.margin",
        induced <= (r + eps) * (1 + RHO_REL),
        f"induced {induced!r} > rho + eps {r + eps!r}",
    )
    led.gaps.append((induced - r) / induced)


def growth(led, name, a, report, eps):
    """g_1 = ||A||_2 / c and c * g_k^(1/k) >= rho(A) for every k."""
    c = report.threshold
    r = led.rho(a)
    seq = report.sequence
    g1 = float(np.linalg.svd(a, compute_uv=False)[0]) / c
    ok = (
        abs(c - (r + eps)) <= RHO_REL * c
        and report.verdict in ("bounded", "growing", "inconclusive")
        and abs(seq[0] - g1) <= 1e-12 * g1
        and all(c * g ** (1.0 / k) >= r * (1 - RHO_REL) for k, g in enumerate(seq, 1))
    )
    led.check(f"{name}.sequence", ok, f"threshold {c!r} sequence {seq[:3]}...")


def cli_outputs(led, name, a, runs, record_gap=True):
    """Exit codes, byte-identical stdout across thread counts, valid report."""
    codes = [code for code, _ in runs]
    led.check(f"{name}.exit", codes == [0] * len(runs), f"exit codes {codes}")
    outs = [out for _, out in runs]
    led.check(f"{name}.same_bytes", len(set(outs)) == 1, "stdout differs across --threads")
    report = absnorm.bounds_report_from_json(json.loads(outs[0]))
    interval(led, name, a, report, record_gap)
