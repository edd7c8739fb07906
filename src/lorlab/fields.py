"""Closed-form field evaluators on a single coordinate chart.

Every evaluator is vectorized: a point argument of shape ``(..., dim)``
yields values with the same leading axes.  Derivative callables are
optional; when absent, central finite differences with a point-scaled
step are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotPositiveDefiniteError

Array = np.ndarray

try:    # the C einsum whose result np.einsum returns when not optimizing
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:
    try:                                                    # NumPy 1
        from numpy.core.multiarray import c_einsum as einsum
    except ImportError:
        einsum = np.einsum

FD_SCALE = 1e-5


def fd_step(x: Array) -> Array:
    """Finite-difference step 1e-5 * max(1, |x|), per point."""
    x = np.asarray(x, float)
    return FD_SCALE * np.maximum(1.0, np.linalg.norm(x, axis=-1))


def _stencil_call(func, x: Array, value_shape: tuple[int, ...],
                  center: bool) -> tuple[Array, Array]:
    """One call of func on the central-difference stencil x +- h e_k of
    x, h = fd_step(x), preceded by x itself when ``center``.  Returns
    func(x) (None without ``center``) and d_k func(x), shaped
    (..., dim, *value_shape)."""
    x = np.asarray(x, float)
    dim = x.shape[-1]
    h = fd_step(x)[..., None]                      # (..., 1)
    shift = h[..., None] * np.eye(dim)
    pts = [x[..., None, :] + shift, x[..., None, :] - shift]
    if center:
        pts.insert(0, x[..., None, :])
    f = np.asarray(func(np.concatenate(pts, axis=-2)), float)
    at = (slice(None),) * (x.ndim - 1)            # the leading axes of x
    k = int(center)                               # first stencil row
    fp = f[at + (slice(k, k + dim),)]
    fm = f[at + (slice(k + dim, None),)]
    denom = (2.0 * h).reshape(h.shape[:-1] + (1,) * (1 + len(value_shape)))
    return (f[at + (0,)] if center else None), (fp - fm) / denom


def worst_of(values) -> float:
    """The largest of the values, or 0.0 if there are none.  A NaN value
    makes the result NaN, so it fails every check; Python's max keeps or
    drops a NaN depending on where it sits."""
    values = [float(v) for v in values]
    return float(np.max(values)) if values else 0.0


def _central_diff(func, x: Array, value_shape: tuple[int, ...]) -> Array:
    """d_k func(x) by central differences from one call of func on the
    stencil; output (..., dim, *value_shape)."""
    return _stencil_call(func, x, value_shape, center=False)[1]


def _central_jet(func, x: Array,
                 value_shape: tuple[int, ...]) -> tuple[Array, Array]:
    """(func(x), d_k func(x)) from one call of func on x stacked with the
    stencil of _central_diff, whose quotient it takes."""
    return _stencil_call(func, x, value_shape, center=True)


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on the chart, optionally with an analytic gradient."""

    func: Callable[[Array], Array]
    grad: Optional[Callable[[Array], Array]] = None
    positive: bool = False

    def __call__(self, x: Array) -> Array:
        val = np.asarray(self.func(np.asarray(x, float)), float)
        if self.positive and (val <= 0.0).any():
            raise NotPositiveDefiniteError("scalar field declared positive is not")
        return val

    def gradient(self, x: Array) -> Array:
        if self.grad is not None:
            return np.asarray(self.grad(np.asarray(x, float)), float)
        return _central_diff(self.func, x, ())

    @staticmethod
    def constant(value: float) -> "ScalarField":
        c = float(value)
        return ScalarField(func=lambda x: np.full(np.shape(x)[:-1], c),
                           grad=lambda x: np.zeros(np.shape(x)),
                           positive=c > 0)


@dataclass(frozen=True)
class CovectorField:
    """One-form with components omega_j(x); jac[..., i, j] = d_i omega_j."""

    dim: int
    func: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None

    def __call__(self, x: Array) -> Array:
        return np.asarray(self.func(np.asarray(x, float)), float)

    def jacobian(self, x: Array) -> Array:
        if self.jac is not None:
            return np.asarray(self.jac(np.asarray(x, float)), float)
        return _central_diff(self.func, x, (self.dim,))

    def exterior_derivative(self, x: Array) -> Array:
        """(d omega)_ij = d_i omega_j - d_j omega_i."""
        J = self.jacobian(x)
        return J - np.swapaxes(J, -1, -2)

    @staticmethod
    def zero(dim: int) -> "CovectorField":
        return CovectorField(dim=dim,
                             func=lambda x: np.zeros(np.shape(x)),
                             jac=lambda x: np.zeros(np.shape(x) + (dim,)))


@dataclass(frozen=True)
class SymTwoTensorField:
    """Symmetric covariant two-tensor field f_ij(x)."""

    dim: int
    func: Callable[[Array], Array]

    def __call__(self, x: Array) -> Array:
        f = np.asarray(self.func(np.asarray(x, float)), float)
        return 0.5 * (f + np.swapaxes(f, -1, -2))

    @staticmethod
    def zero(dim: int) -> "SymTwoTensorField":
        return SymTwoTensorField(dim=dim,
                                 func=lambda x: np.zeros(np.shape(x) + (dim,)))
