"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import numpy as np
import pytest

from absnorm import (
    GrowthQuery,
    WeightedLpNorm,
    build_norm,
    check_growth_condition,
    contraction_check,
    entrywise_abs,
    induced_norm,
    mu_bounds,
    mu_lower_bound,
    mu_upper_bound,
    nonneg_spectral_radius,
    optimal_weighted_l1,
    sign_equivalent_to_abs,
    spectral_norm,
    spectral_radius,
    verify_norm_axioms,
)
from absnorm.signequiv import EquivalenceWitness

SHARP = np.array([[1.0, 1.0], [-1.0, -1.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])
ROOT2 = float(np.sqrt(2.0))


def report(number, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


class TestCriterion1:
    def test_corollary_fixture(self):
        start = time.perf_counter()
        rho = spectral_radius(SHARP)
        nrm = spectral_norm(SHARP)
        fast = mu_bounds(SHARP, max_depth=1)
        slow = mu_bounds(SHARP, max_depth=1, use_shortcut=False)
        elapsed = time.perf_counter() - start
        ok = (
            abs(rho) <= 1e-9
            and abs(nrm - 2.0) <= 1e-9
            and fast.shortcut == "sign_equivalent"
            and abs(fast.lower - 2.0) <= 1e-9
            and abs(fast.upper - 2.0) <= 1e-9
            and slow.shortcut == "none"
            and abs(slow.lower - 2.0) <= 1e-9
            and abs(slow.upper - 2.0) <= 1e-9
            and elapsed < 1.0
        )
        report(
            1,
            f"rho=0, ||A||_2=2, mu=[2,2] via shortcut and generic engine "
            f"({elapsed * 1000:.0f} ms)",
            ok,
        )


class TestCriterion2:
    def test_strict_gap_fixture(self):
        start = time.perf_counter()
        # Independent oracle: every product of k factors A*D has 2-norm
        # exactly 2^(k/2) because A/sqrt(2) is orthogonal and sign
        # diagonals preserve orthogonality.
        letters = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
        level = [HADAMARD * d[None, :] for d in letters]
        oracle_ok = True
        for depth in range(1, 7):
            if depth > 1:
                level = [p @ (HADAMARD * d[None, :]) for p in level for d in letters]
            for prod in level:
                oracle_ok &= abs(
                    np.linalg.norm(prod, 2) - 2 ** (depth / 2)
                ) <= 1e-12 * 2 ** (depth / 2)
        bounds = mu_bounds(HADAMARD, max_depth=1)
        rho_abs = nonneg_spectral_radius(entrywise_abs(HADAMARD)).rho
        elapsed = time.perf_counter() - start
        ok = (
            oracle_ok
            and abs(bounds.lower - ROOT2) <= 1e-9
            and abs(bounds.upper - ROOT2) <= 1e-9
            and abs(rho_abs - 2.0) <= 1e-9
            and bounds.upper < rho_abs
            and elapsed < 1.0
        )
        report(
            2,
            f"mu pinches to sqrt(2) at depth 1 while rho(|A|)=2 "
            f"({elapsed * 1000:.0f} ms)",
            ok,
        )


class TestCriterion3:
    def test_nonnegative_equality_and_certificates(self):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        ok = True
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            b = rng.random((n, n)) * (0.2 + rng.random())
            b[rng.random((n, n)) < 0.2] = 0.0
            result = mu_bounds(b, max_depth=2)
            rho = nonneg_spectral_radius(b).rho
            gap = max(abs(result.lower - rho), abs(result.upper - rho))
            worst = max(worst, gap)
            ok &= result.exact and gap <= 1e-6
            weights = optimal_weighted_l1(b, eps=1e-3)
            ok &= induced_norm(b, weights) <= rho + 1e-3 + 1e-9
        elapsed = time.perf_counter() - start
        ok &= elapsed < 30.0
        report(
            3,
            f"100 nonnegative matrices: exact shortcut (worst gap {worst:.2e}) "
            f"and certified l1 weights ({elapsed:.1f} s)",
            ok,
        )


class TestCriterion4:
    @staticmethod
    def oracle_upper_bounds(a, max_depth):
        """Exhaustive level enumeration by plain product folding."""
        n = a.shape[0]
        letters = [
            np.array((1.0,) + tail)
            for tail in itertools.product((1.0, -1.0), repeat=n - 1)
        ]
        values = [np.linalg.norm(a, 2)]
        level = [a]
        for depth in range(2, max_depth + 1):
            level = [(p * d[None, :]) @ a for p in level for d in letters]
            values.append(max(np.linalg.norm(q, 2) for q in level) ** (1.0 / depth))
        return [min(values[:k]) for k in range(1, max_depth + 1)]

    @staticmethod
    def full_alphabet_bounds(a, max_depth):
        """The engine's upper and lower bounds at each depth over all 2^n sign
        letters, by batched products.  The lower side keeps per depth the first
        word within 1e-12 relative of the maximum, and takes it when it beats
        the best so far by more than 1e-12 relative."""
        n = a.shape[0]
        letters = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        uppers, lowers, best, interior = [], [], -np.inf, a[None]
        for depth in range(1, max_depth + 1):
            top = np.linalg.svd(interior, compute_uv=False)[:, 0].max() ** (1.0 / depth)
            uppers.append(min(uppers[-1:] + [top]))
            terminal = (interior[:, None] * letters[None, :, None, :]).reshape(-1, n, n)
            values = np.abs(np.linalg.eigvals(terminal)).max(axis=-1) ** (1.0 / depth)
            top = values.max()
            value = values[np.argmax(values >= top - 1e-12 * max(1.0, top))]
            if best == -np.inf or value > best + 1e-12 * max(1.0, abs(best)):
                best = value
            lowers.append(best)
            interior = terminal @ a
        return uppers, lowers

    def test_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(4242)
        ok = True
        for trial in range(50):
            n = 2 if trial % 2 == 0 else 3
            a = rng.standard_normal((n, n))
            oracle = self.oracle_upper_bounds(a, 8)
            for depth in (1, 2, 4, 8):
                engine = mu_upper_bound(a, max_depth=depth, prune_delta=0.0)
                ok &= abs(engine - oracle[depth - 1]) <= 1e-12
            full_upper, full_lower = self.full_alphabet_bounds(a, 5)
            for depth in (1, 3, 5):
                quot = mu_upper_bound(a, max_depth=depth, prune_delta=0.0)
                lq, _ = mu_lower_bound(a, max_depth=depth)
                ok &= abs(quot - full_upper[depth - 1]) <= 1e-12
                ok &= abs(lq - full_lower[depth - 1]) <= 1e-12
        elapsed = time.perf_counter() - start
        ok &= elapsed < 120.0
        report(
            4,
            f"50 matrices: branch-and-bound equals exhaustive oracle to 1e-12, "
            f"quotient equals full enumeration ({elapsed:.1f} s)",
            ok,
        )


class TestCriterion5:
    def test_inequality_suite(self):
        rng = np.random.default_rng(5555)
        ok = True
        for trial in range(500):
            n = int(rng.integers(1, 7))
            complex_field = trial % 2 == 1
            a = rng.standard_normal((n, n))
            if complex_field:
                a = a + 1j * rng.standard_normal((n, n))
            p = (1.0, 2.0, np.inf)[trial % 3]
            norm = WeightedLpNorm(rng.random(n) + 0.1, p)
            ok &= spectral_radius(a) <= induced_norm(a, norm) + 1e-9

            unit = WeightedLpNorm(np.ones(n), p)
            if complex_field:
                d1 = np.exp(2j * np.pi * rng.random(n))
                d2 = np.exp(2j * np.pi * rng.random(n))
            else:
                d1 = rng.choice([-1.0, 1.0], n)
                d2 = rng.choice([-1.0, 1.0], n)
            scaled = d1[:, None] * a * d2[None, :]
            ok &= abs(induced_norm(scaled, unit) - induced_norm(a, unit)) <= 1e-12
        report(
            5,
            "500 pairs over both fields: rho(A) <= ||A|| and two-sided "
            "unimodular scaling invariance",
            ok,
        )


class TestCriterion6:
    def test_norm_construction(self):
        norm = build_norm(SHARP, c=2.1, m=6)
        axioms = verify_norm_axioms(norm, trials=1000, seed=0)
        shallow = contraction_check(build_norm(SHARP, c=2.1, m=5), trials=1000, seed=0)
        deep = contraction_check(norm, trials=1000, seed=0)
        stabilized = (
            deep.max_empirical_ratio <= 2.1
            and shallow.max_empirical_ratio <= 2.1
            and abs(deep.max_empirical_ratio - shallow.max_empirical_ratio) <= 0.05
        )
        ok = axioms.passed and deep.structural_failures == 0 and stabilized
        report(
            6,
            f"axioms pass 1000 trials, contraction structural on all trials, "
            f"induced ratio {deep.max_empirical_ratio:.4f} <= 2.1",
            ok,
        )


class TestCriterion7:
    def test_growth_verdicts(self):
        growing = check_growth_condition(SHARP, GrowthQuery(eps=None, m=6, level=0.5))
        bounded = check_growth_condition(SHARP, GrowthQuery(eps=None, m=6, level=2.5))
        seq = growing.sequence
        ratios_ok = all(
            abs(seq[i + 1] / seq[i] - 4.0) <= 1e-6 for i in range(len(seq) - 1)
        )
        ok = growing.verdict == "growing" and ratios_ok and bounded.verdict == "bounded"
        report(
            7,
            "growth sequence: growing at c=0.5 with per-depth ratio 4, "
            "bounded at c=2.5",
            ok,
        )


class TestCriterion8:
    def test_sign_equivalence_completeness(self):
        start = time.perf_counter()
        n = 3
        signs = np.array(
            list(itertools.product((1.0, -1.0), repeat=n))
        )  # (8, 3)
        patterns = np.array(
            list(itertools.product((-1.0, 0.0, 1.0), repeat=n * n))
        ).reshape(-1, n, n)
        # Brute-force oracle, vectorized: D1 |A| D2 == A for some pair.
        outer = signs[:, None, :, None] * signs[None, :, None, :]  # (8, 8, 3, 3)
        ok = True
        chunk = 512
        for lo in range(0, len(patterns), chunk):
            block = patterns[lo : lo + chunk]
            cand = outer[None] * np.abs(block)[:, None, None]
            brute = (cand == block[:, None, None]).all(axis=(3, 4)).any(axis=(1, 2))
            for pattern, expected in zip(block, brute):
                verdict = isinstance(
                    sign_equivalent_to_abs(pattern), EquivalenceWitness
                )
                ok &= verdict == bool(expected)
        elapsed = time.perf_counter() - start
        ok &= elapsed < 60.0
        report(
            8,
            f"all 3^9 sign patterns agree with the 8x8 brute-force search "
            f"({elapsed:.1f} s)",
            ok,
        )
