"""Reference checks built on the package's public API, for the tests."""

from sinkhornlab import (
    DiagonalScaling,
    IterationConfig,
    PositiveMatrix,
    apply_left,
    apply_right,
    sinkhorn,
)


def scaling_invariance_check(
    A: PositiveMatrix,
    P: DiagonalScaling,
    Q: DiagonalScaling,
    cfg: IterationConfig | None = None,
) -> float:
    """Max-norm gap between the limits of A and of P @ A @ Q.

    The two limits agree in theory for any positive diagonals P and Q;
    two independent runs measure how closely the engine reproduces that.
    Expected <= 2 * tolerance for converged approximate runs.
    """
    first = sinkhorn(A, cfg)
    second = sinkhorn(apply_right(apply_left(P, A), Q), cfg)
    return float(
        max(
            abs(x - y)
            for xr, yr in zip(first.limit.entries, second.limit.entries)
            for x, y in zip(xr, yr)
        )
    )
