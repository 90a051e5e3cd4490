"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from sinkhornlab import (
    DiagonalScaling,
    IterationConfig,
    PositiveMatrix,
    StartSide,
    Status,
    Termination,
    apply_left,
    apply_right,
    bordered_limit,
    bordered_limit_triangular,
    bordered_matrix,
    classify_2x2,
    col_scaling,
    is_rational_square,
    limit_2x2,
    limit_2x2_exact,
    limit_2x2_symmetric,
    row_scaling,
    sinkhorn,
    termination_length_2x2,
    transpose,
)
from sinkhornlab.cli import main as cli_main

from .reference import scaling_invariance_check

F = Fraction

FLAT = PositiveMatrix(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({name}): FAIL")
        raise
    else:
        print(f"criterion {num:02d} ({name}): PASS")


def test_criterion_01_worked_trace_regression():
    with criterion(1, "worked-trace regression"):
        A = PositiveMatrix(((1, 3), (3, 4)))
        cfg = IterationConfig(start_side=StartSide.COLUMN_FIRST, max_steps=3)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            res = sinkhorn(A, cfg, capture_matrices=True)
            best = min(best, time.perf_counter() - t0)
        assert res.trace[1].matrix == PositiveMatrix(
            ((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7)))
        )
        assert res.trace[2].matrix == PositiveMatrix(
            ((F(7, 19), F(12, 19)), (F(21, 37), F(16, 37)))
        )
        assert res.trace[3].matrix == PositiveMatrix(
            ((F(37, 94), F(111, 187)), (F(57, 94), F(76, 187)))
        )
        assert best < 1e-3, f"3-step exact trace took {best * 1e3:.3f} ms"


def test_criterion_02_closed_form_vs_iteration():
    with criterion(2, "closed form vs iteration"):
        res = sinkhorn(PositiveMatrix(((1.0, 3.0), (3.0, 4.0))))
        assert res.status is Status.CONVERGED and res.steps_taken <= 10_000
        expected = ((0.4, 0.6), (0.6, 0.4))
        for row, erow in zip(res.limit.entries, expected):
            for x, e in zip(row, erow):
                assert abs(x - e) <= 1e-10
        assert abs(limit_2x2(1, 3, 3, 4).alpha - 0.4) <= 1e-14
        assert abs(limit_2x2(1, 2, 3, 4).alpha - (math.sqrt(6) - 2)) <= 1e-14


def test_criterion_03_rationality_predicate():
    with criterion(3, "rationality predicate"):
        lim = limit_2x2_exact(F(1), F(3), F(3), F(4))
        assert lim.is_rational and lim.alpha == F(2, 5)
        lim = limit_2x2_exact(F(1), F(2), F(3), F(4))
        assert not lim.is_rational and lim.ratio == F(2, 3)

        rng = random.Random(20260809)

        def rand_fraction():
            return F(rng.randint(1, 30), rng.randint(1, 30))

        for i in range(1000):
            a, b, c = rand_fraction(), rand_fraction(), rand_fraction()
            if i % 2 == 0:
                s = rand_fraction()
                d = s * s * b * c / a  # rank-constructed: ad/bc = s^2
            else:
                d = rand_fraction()
            lim = limit_2x2_exact(a, b, c, d)
            ratio = a * d / (b * c)
            assert lim.is_rational == is_rational_square(ratio)
            if i % 2 == 0:
                assert lim.alpha == s / (s + 1)


def test_criterion_04_symmetric_form():
    with criterion(4, "symmetric two-sided scaler"):
        lim = limit_2x2_symmetric(1, 2, 4)
        assert abs(lim.scaler.diag[0] - math.sqrt(2) / 2) <= 1e-15
        assert abs(lim.scaler.diag[1] - math.sqrt(2) / 4) <= 1e-15
        assert abs(lim.alpha - 0.5) <= 1e-15 and abs(lim.beta - 0.5) <= 1e-15
        lim = limit_2x2_symmetric(1, 1, 1)
        assert abs(lim.alpha - 0.5) <= 1e-15 and abs(lim.beta - 0.5) <= 1e-15


def test_criterion_05_one_step_classification():
    with criterion(5, "one-step classification"):
        expected = PositiveMatrix(((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))))
        v = classify_2x2(PositiveMatrix(((1, 12), (3, 4))), StartSide.COLUMN_FIRST)
        assert v.variant is Termination.ONE_STEP_COLUMN
        assert v.limit == expected
        v = classify_2x2(PositiveMatrix(((1, 3), (12, 4))), StartSide.ROW_FIRST)
        assert v.variant is Termination.ONE_STEP_ROW
        assert v.limit == expected


@dataclass
class SweepOutcome:
    histogram: Counter
    total: int
    mismatches: list
    two_step_limit_violations: list
    elapsed: float


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Every positive 2x2 matrix whose entries are reduced rationals with
    numerator and denominator at most 6, classified and iterated."""
    values = [F(p, q) for p in range(1, 7) for q in range(1, 7) if gcd(p, q) == 1]
    histogram: Counter = Counter()
    mismatches = []
    violations = []
    total = 0
    t0 = time.perf_counter()
    for a, b, c, d in itertools.product(values, repeat=4):
        A = PositiveMatrix(((a, b), (c, d)))
        verdict = classify_2x2(A, StartSide.COLUMN_FIRST)
        length = termination_length_2x2(A, StartSide.COLUMN_FIRST, max_steps=64)
        total += 1
        histogram[length] += 1
        if verdict.length != length or (length is not None and length > 2):
            mismatches.append((A, verdict.length, length))
        if verdict.length == 2 and verdict.limit != FLAT:
            violations.append(A)
    elapsed = time.perf_counter() - t0
    return SweepOutcome(histogram, total, mismatches, violations, elapsed)


def test_criterion_06_at_most_two_steps_exhaustive(exhaustive_sweep):
    with criterion(6, "at-most-two-steps exhaustive sweep"):
        s = exhaustive_sweep
        assert s.total == 23**4 == 279_841
        assert not s.mismatches, f"first disagreements: {s.mismatches[:3]}"
        assert set(s.histogram) <= {0, 1, 2, None}
        assert s.elapsed < 60, f"sweep took {s.elapsed:.1f} s"
        print(
            f"  [sweep: {s.total} matrices in {s.elapsed:.1f} s;"
            f" L=0: {s.histogram[0]}, L=1: {s.histogram[1]},"
            f" L=2: {s.histogram[2]}, infinite: {s.histogram[None]}]"
        )


def test_criterion_07_two_step_limit_law(exhaustive_sweep):
    with criterion(7, "two-step limit law"):
        assert exhaustive_sweep.histogram[2] > 0
        assert not exhaustive_sweep.two_step_limit_violations


def test_criterion_08_bordered_family():
    with criterion(8, "bordered family closed form"):
        lim = bordered_limit(3, 2.0)
        assert abs(lim.alpha - (5 - math.sqrt(17)) / 2) <= 1e-12
        lim = bordered_limit(3, 3.0)
        assert abs(lim.alpha - 0.5) <= 1e-15
        assert abs(lim.beta - 0.25) <= 1e-15
        assert abs(lim.gamma - 0.375) <= 1e-15
        lim = bordered_limit(4, 5.0)
        assert abs(lim.alpha - 0.5) <= 1e-12
        assert abs(lim.beta - 1 / 6) <= 1e-12
        assert abs(lim.gamma - 5 / 18) <= 1e-12
        lim = bordered_limit(4, 2.0)
        assert abs(lim.alpha - (3 - math.sqrt(7))) <= 1e-12

        for K in (0.1, 0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0):
            for n in range(3, 51):
                a = bordered_limit(n, K).alpha
                residual = (K - 1) * a * a - (2 * K + n - 2) * a + K
                assert abs(residual) <= 1e-10, (n, K, residual)

        res = sinkhorn(bordered_matrix(5, 7.0))
        assert res.status is Status.CONVERGED
        expected = bordered_limit(5, 7.0).limit_matrix()
        for row, erow in zip(res.limit.entries, expected.entries):
            for x, e in zip(row, erow):
                assert abs(x - e) <= 1e-8


def test_criterion_09_triangular_family():
    with criterion(9, "triangular-number rational family"):
        for k in range(2, 21):
            exact = bordered_limit_triangular(k)
            assert isinstance(exact.alpha, F)
            assert isinstance(exact.beta, F)
            assert isinstance(exact.gamma, F)
            approx = bordered_limit(3, (k * k + k) / 2)
            assert abs(float(exact.alpha) - approx.alpha) <= 1e-12
            assert abs(float(exact.beta) - approx.beta) <= 1e-12
            assert abs(float(exact.gamma) - approx.gamma) <= 1e-12


def test_criterion_10_uniqueness_invariance():
    with criterion(10, "limit invariance under diagonal scaling"):
        rng = random.Random(20260809)
        cfg = IterationConfig(tolerance=1e-12)
        for trial in range(100):
            n = 2 if trial < 50 else 3
            A = PositiveMatrix(
                [[rng.uniform(0.1, 10.0) for _ in range(n)] for _ in range(n)]
            )
            P = DiagonalScaling([rng.uniform(0.1, 10.0) for _ in range(n)])
            Q = DiagonalScaling([rng.uniform(0.1, 10.0) for _ in range(n)])
            deviation = scaling_invariance_check(A, P, Q, cfg)
            assert deviation <= 2e-12, (A, P, Q, deviation)


def test_criterion_11_transpose_symmetry():
    with criterion(11, "transpose symmetry of the scalings"):
        rng = random.Random(20260809)
        for _ in range(1000):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = PositiveMatrix(
                [
                    [F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n)]
                    for _ in range(m)
                ]
            )
            At = transpose(A)
            assert apply_right(A, col_scaling(A)) == transpose(
                apply_left(row_scaling(At), At)
            )


def test_criterion_12_convergence_rate_instrumentation(capsys):
    with criterion(12, "convergence-rate trace instrumentation"):
        assert cli_main(["trace", "1,2;3,4", "--tol", "1e-12"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "step,side,max_row_err,max_col_err"
        sides = [line.split(",")[1] for line in lines[1:]]
        assert sides[0] == "-" and set(sides[1:]) <= {"row", "col"}
        final = lines[-1].split(",")
        assert max(float(final[2]), float(final[3])) <= 1e-12

        assert cli_main(["trace", "--exact", "1,2;3,4", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "step,side,max_row_err,max_col_err,max_entry_bits"
        assert len(lines) == 12  # header + steps 0..10
        bits = [int(line.split(",")[4]) for line in lines[1:]]
        assert bits == sorted(bits), f"entry bits not nondecreasing: {bits}"
