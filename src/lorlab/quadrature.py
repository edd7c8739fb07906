"""One-dimensional quadrature and interpolation over a curve's samples.

The light ray transform, the flux integrals and the stationary lift
integrate or interpolate along the integrator's own samples.  Both
pieces follow scipy's definitions: ``simpson`` is the composite
Simpson rule of ``scipy.integrate.simpson`` in its operation order, and
``CubicSpline`` is the not-a-knot spline of
``scipy.interpolate.CubicSpline`` with its end-piece extrapolation.
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


def _tridiagonal_solve(lower: list, diag: list, upper: list,
                       rhs: Array) -> Array:
    """Thomas algorithm for lower[i-1] s[i-1] + diag[i] s[i] + upper[i]
    s[i+1] = rhs[i], rhs of shape (n, K): the scalar matrix is
    eliminated once, then each column of rhs is swept on Python floats
    (twice as fast as a row-by-row sweep for the few columns of a
    curve)."""
    n = len(diag)
    m = [diag[0]]
    cp = [upper[0] / diag[0]]
    for i in range(1, n):
        m.append(diag[i] - lower[i - 1] * cp[i - 1])
        if i < n - 1:
            cp.append(upper[i] / m[i])
    cols = []
    for col in rhs.T.tolist():
        d = col[0] / m[0]
        dp = [d]
        for r, low, mi in zip(col[1:], lower, m[1:]):
            d = (r - low * d) / mi
            dp.append(d)
        for i in range(n - 2, -1, -1):
            d = dp[i] - cp[i] * d
            dp[i] = d
        cols.append(dp)
    return np.array(cols, float).T


def _not_a_knot_slopes(x: Array, dx: Array, y: Array,
                       slope: Array) -> Array:
    """Knot slopes of the not-a-knot cubic spline through (x, y), y of
    shape (n, K): a line for n = 2, the parabola for n = 3."""
    n = len(x)
    if n == 2:
        return np.repeat(slope, 2, axis=0)
    dxr = dx[:, None]
    if n == 3:
        a = np.array([[1.0, 1.0, 0.0],
                      [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b = np.stack([2 * slope[0],
                      3 * (dxr[0] * slope[1] + dxr[1] * slope[0]),
                      2 * slope[1]])
        return np.linalg.solve(a, b)
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0]
            + dxr[0] ** 2 * slope[1]) / d
    e = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2]
             + (2 * e + dxr[-1]) * dxr[-2] * slope[-1]) / e
    inner = dx.tolist()
    diag = [inner[1]] + (2 * (dx[:-1] + dx[1:])).tolist() + [inner[-2]]
    return _tridiagonal_solve(lower=inner[1:] + [float(e)], diag=diag,
                              upper=[float(d)] + inner[:-1], rhs=b)


class CubicSpline:
    """Not-a-knot cubic spline through (x[i], y[i]) along axis 0 of y.

    x is 1-D and strictly increasing with at least two samples; y has
    shape (n, ...).  Calling the spline at points of any shape returns
    values of shape ``points.shape + y.shape[1:]``; points outside
    [x[0], x[-1]] take the polynomial of the first or last piece, as
    scipy's spline does."""

    def __init__(self, x: Array, y: Array):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if x.ndim != 1 or len(x) < 2 or y.shape[:1] != x.shape:
            raise ValueError(f"spline needs 1-D x with at least two samples "
                             f"and y of the same length, got shapes "
                             f"{x.shape} and {y.shape}")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("spline abscissae must be strictly increasing")
        self.x = x
        self._trailing = y.shape[1:]
        y = y.reshape(len(x), -1)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        s = _not_a_knot_slopes(x, dx, y, slope)
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
