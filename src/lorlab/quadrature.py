"""One-dimensional quadrature and interpolation over a curve's samples.

The light ray transform, the flux integrals and the stationary lift
integrate or interpolate along the integrator's own samples, at which
a flow also knows its derivatives.  ``simpson`` is the composite Simpson
rule of ``scipy.integrate.simpson`` in its operation order, and
``CubicHermiteSpline`` the piecewise cubic of
``scipy.interpolate.CubicHermiteSpline`` with its end-piece extrapolation.
"""

from __future__ import annotations

import numpy as np

from .fields import Array


def _ratio(num: Array, den: Array) -> Array:
    """num / den, 0 where den == 0 (scipy's guarded divisions)."""
    num, den = np.asarray(num, float), np.asarray(den, float)
    return np.true_divide(num, den, out=np.zeros(np.broadcast(num, den).shape),
                          where=den != 0)


def _simpson_pairs(y: Array, h: Array, stop: int) -> float:
    """Simpson's rule over the interval pairs starting at samples
    0, 2, ... < stop, for the spacings h = diff(x)."""
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _ratio(h0, h1)
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - _ratio(1.0, h0divh1))
                        + y[1:stop + 1:2] * (hsum * _ratio(hsum, hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y: Array, x: Array) -> float:
    """Composite Simpson rule of the samples y at abscissae x (both 1-D).

    An even sample count integrates the last interval with the
    Cartwright correction; two samples give the trapezoid."""
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    if y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"simpson needs 1-D y and x of one length, "
                         f"got shapes {y.shape} and {x.shape}")
    n = len(y)
    h = np.diff(x)
    if n % 2:
        return float(_simpson_pairs(y, h, n - 2))
    if n == 2:
        return float(0.5 * h[-1] * (y[-1] + y[-2]))
    result = _simpson_pairs(y, h, n - 3)
    hm2, hm1 = h[-2], h[-1]
    alpha = _ratio(2 * hm1 ** 2 + 3 * hm2 * hm1, 6 * (hm1 + hm2))
    beta = _ratio(hm1 ** 2 + 3.0 * hm2 * hm1, 6 * hm2)
    eta = _ratio(hm1 ** 3, 6 * hm2 * (hm2 + hm1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


class CubicHermiteSpline:
    """Cubic Hermite spline through (x[i], y[i]) with slopes dydx[i].

    x is 1-D and strictly increasing with at least two samples; y and
    dydx have one shape (n, ...).  Calling the spline at points of any
    shape returns values of shape ``points.shape + y.shape[1:]``; points
    outside [x[0], x[-1]] take the polynomial of the first or last
    piece, as scipy's spline does."""

    def __init__(self, x: Array, y: Array, dydx: Array):
        x, y = np.asarray(x, float), np.asarray(y, float)
        dydx = np.asarray(dydx, float)
        if (x.ndim != 1 or len(x) < 2 or y.shape[:1] != x.shape
                or dydx.shape != y.shape):
            raise ValueError(f"spline needs 1-D x with at least two samples "
                             f"and y and dydx of that length and one shape, "
                             f"got {x.shape}, {y.shape} and {dydx.shape}")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("spline abscissae must be strictly increasing")
        self.x = x
        self._trailing = y.shape[1:]
        y, s = y.reshape(len(x), -1), dydx.reshape(len(x), -1)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        # piece i is c[i, 0] u^3 + c[i, 1] u^2 + c[i, 2] u + c[i, 3] in
        # u = point - x[i]
        self.c = np.stack([t / dxr, (slope - s[:-1]) / dxr - t, s[:-1],
                           y[:-1]], axis=1)
        self._inner = x[1:-1]

    def __call__(self, points: Array) -> Array:
        points = np.asarray(points, float)
        flat = points.reshape(-1)
        # piece i for x[i] <= point < x[i + 1]; points below x[1] take
        # the first piece, points from x[-2] on the last
        i = np.searchsorted(self._inner, flat, side="right")
        u = (flat - self.x[i])[:, None]
        c = self.c[i]
        vals = ((c[:, 0] * u + c[:, 1]) * u + c[:, 2]) * u + c[:, 3]
        return vals.reshape(points.shape + self._trailing)

    def antiderivative_at_knots(self) -> Array:
        """Integral of the spline from x[0] to each knot, shape
        ``(n,) + y.shape[1:]``."""
        h = np.diff(self.x)[:, None]
        c0, c1, c2, c3 = np.moveaxis(self.c, 1, 0)
        pieces = h * (c3 + h * (c2 / 2 + h * (c1 / 3 + h * c0 / 4)))
        out = np.concatenate([np.zeros((1, pieces.shape[1])),
                              np.cumsum(pieces, axis=0)])
        return out.reshape((len(self.x),) + self._trailing)
