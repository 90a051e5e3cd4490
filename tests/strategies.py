"""Shared hypothesis strategies for positive scalars and matrices."""

from fractions import Fraction

from hypothesis import strategies as st

from sinkhornlab import PositiveMatrix

positive_fractions = st.fractions(
    min_value=Fraction(1, 40), max_value=Fraction(40), max_denominator=40
)

positive_floats = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@st.composite
def exact_matrices(draw, min_dim=1, max_dim=6, square=False):
    m = draw(st.integers(min_dim, max_dim))
    n = m if square else draw(st.integers(min_dim, max_dim))
    rows = draw(
        st.lists(
            st.lists(positive_fractions, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return PositiveMatrix(rows)


@st.composite
def exact_matrices_2x2(draw):
    rows = draw(
        st.lists(
            st.lists(positive_fractions, min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        )
    )
    return PositiveMatrix(rows)


@st.composite
def approx_matrices(draw, min_dim=1, max_dim=5, square=False):
    m = draw(st.integers(min_dim, max_dim))
    n = m if square else draw(st.integers(min_dim, max_dim))
    rows = draw(
        st.lists(
            st.lists(positive_floats, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return PositiveMatrix(rows)


def _minus_mean(v):
    mean = Fraction(sum(v), len(v))
    return [x - mean for x in v]


def _orthogonal_rest(v, basis):
    """v minus its projection on the span of basis (mutually orthogonal)."""
    for u in basis:
        uu = sum(x * x for x in u)
        if uu:
            f = sum(x * y for x, y in zip(v, u)) / uu
            v = [x - f * y for x, y in zip(v, u)]
    return v


@st.composite
def two_step_matrices(draw, n):
    """(A, S): a positive rational n x n A whose column-first exact run
    first reaches the doubly stochastic S at step 2.

    Built backwards. S = J/n + E, where E is a sum of at most n - 2
    rank-one terms a b^T with a and b summing to 0, scaled so that S
    stays positive. E fixes the all-ones vector on both sides, so S is
    doubly stochastic, and it has rank at most n - 2 on the complement
    of that vector, so S is singular. Any v != 0 orthogonal to the ones
    vector and to every a lies in ker S^T, and r = 1 + mu v > 0 has
    S^T r = 1 with r != 1. Then A = diag(r) S diag(t), for any positive
    t: a column step gives diag(r) S, whose row sums are r, and a row
    step gives S.
    """
    coords = st.integers(-3, 3)
    terms = [
        (_minus_mean(draw(st.lists(coords, min_size=n, max_size=n))),
         _minus_mean(draw(st.lists(coords, min_size=n, max_size=n))))
        for _ in range(draw(st.integers(0, n - 2)))
    ]
    E = [[sum(a[i] * b[j] for a, b in terms) for j in range(n)] for i in range(n)]
    largest = max(abs(x) for row in E for x in row)
    shrinks = st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20)
    scale = draw(shrinks) / (n * largest) if largest else 0
    S = [[Fraction(1, n) + scale * x for x in row] for row in E]

    basis = [[Fraction(1)] * n]
    for a, _ in terms:
        basis.append(_orthogonal_rest(a, basis))
    seeds = [draw(st.lists(coords, min_size=n, max_size=n))]
    seeds += [[int(i == j) for j in range(n)] for i in range(n)]
    v = next(w for w in (_orthogonal_rest(s, basis) for s in seeds) if any(w))
    mu = draw(st.sampled_from([-1, 1])) * draw(shrinks) / max(abs(x) for x in v)
    r = [1 + mu * x for x in v]
    t = draw(st.lists(positive_fractions, min_size=n, max_size=n))
    A = [[r[i] * S[i][j] * t[j] for j in range(n)] for i in range(n)]
    return PositiveMatrix(A), PositiveMatrix(S)


@st.composite
def integer_matrices_with_dependent_rows(draw, n, bound=9):
    """Positive integer n x n matrices; often one row is a copy of
    another or the sum of others, the shapes that give singular limits."""
    entries = st.integers(1, bound)
    rows = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        target = draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != target]
        chosen = draw(st.lists(st.sampled_from(others), min_size=1, max_size=n - 1, unique=True))
        rows[target] = [sum(rows[i][j] for i in chosen) for j in range(n)]
    return PositiveMatrix(rows)


@st.composite
def square_matrices_often_singular(draw, entries):
    """Square lists of rows, n = 1..5, with entries drawn from `entries`;
    in about half the draws one row is an integer combination of the
    others (the zero row at n = 1), so the matrix is singular."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        target = draw(st.integers(0, n - 1))
        weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        weights[target] = 0
        rows[target] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
    return rows
