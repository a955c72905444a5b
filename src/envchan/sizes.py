"""Integer sizes: the one statement of the rule that a dimension, count or
index is an integer, and the parameter count of the realization problem.

Standard library only, so ``envchan params``, which needs nothing else,
starts without NumPy. NumPy's integer scalars register as ``Integral``
once NumPy is loaded, so they pass the rule too.
"""

from numbers import Integral


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; booleans are not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_integers(message: str, *values, least: int = 1) -> None:
    """Raise ``ValueError(message)`` unless each value is an integer ≥ ``least``."""
    if not all(_is_integer(v) and v >= least for v in values):
        raise ValueError(message)


def parameter_count(d: int, d_fin: int) -> int:
    """Real parameters of the mixed-environment realization problem:
    d²·(d_fin² − 1).

    Counted as: spectrum degrees of freedom (d_fin − 1), minus the basis
    freedom absorbed into U (d_fin − 1), plus the unitary group dimension
    (d²·d_fin² − 1, up to global phase), minus redundancy on the traced-out
    input factor (d² − 1). This is the problem's dimension, not the number
    of reals the searcher optimizes over.

    Raises:
        ValueError: "dimensions must be positive" unless d and d_fin are
            integers ≥ 1.
    """
    _check_integers("dimensions must be positive", d, d_fin)
    return d * d * (d_fin * d_fin - 1)
