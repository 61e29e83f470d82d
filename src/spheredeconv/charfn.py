"""Characteristic functions on a deterministic evaluation grid.

The contrast compares products of characteristic functions over a box
[-nu_est, nu_est]^d split as (1, d-1): the first frequency coordinate on
one axis, the remaining d-1 coordinates flattened into a tensor block.
Integrals over the box use tensor Gauss-Legendre quadrature, so repeated
evaluations are deterministic and smooth in the model parameters.

Model side: Psi_{f,R}(t) = int exp(i R <t, S(u)>) f(u) du.  On the circle
with Fourier coefficients this collapses, in polar coordinates
t = r (cos 2 pi theta, sin 2 pi theta), to the Bessel sum
sum_p i^p c_p J_p(r R) exp(-2 i pi p theta); in all other cases the angle
integral is evaluated by Gauss-Legendre quadrature on the unit box.
psi_model_marginals is the one route from a grid to Psi values.

The closed form reads a PolarTable: the sorted union of the radii of the
point sets it serves, each set's index into that union, and each set's
phase powers exp(-2 i pi p theta), p = 1..K.  EvalGrid caches one table
per cutoff K for its axis-1, axis-2 and full point sets, built on the
first probe, so each grid evaluation runs the Bessel series once, on the
union times R, and gathers every set's J values from that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bessel import DEFAULT_CONFIG, BesselEvalConfig, _series_multi
from .geometry import AngleDensity, FourierDensity, fourier_series, sphere_map, tensor_rule

# half-width of the default frequency window [-nu_est, nu_est]^d
DEFAULT_NU_EST = 1.0
# the narrower window of bench fits and of the population contrast's default grid
BENCH_NU_EST = 0.5


@lru_cache(maxsize=64)
def _gauss_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(eq=False)
class EvalGrid:
    """Tensor Gauss-Legendre grid on [-nu_est, nu_est]^d with split (1, d-1).

    axis1_nodes carry the first frequency coordinate; axis2_nodes hold the
    flattened (d-1)-dimensional block, one row per tensor node.  Full-grid
    quantities are indexed [i, j] for (axis1 node i, axis2 node j).
    """

    nu_est: float
    nodes_per_axis: int
    dim: int
    axis1_nodes: np.ndarray
    axis1_weights: np.ndarray
    axis2_nodes: np.ndarray
    axis2_weights: np.ndarray

    @classmethod
    def build(cls, dim: int = 2, nu_est: float = DEFAULT_NU_EST, nodes_per_axis: int = 33) -> "EvalGrid":
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if not (nu_est > 0.0):
            raise ValueError("nu_est must be positive")
        if nodes_per_axis < 2:
            raise ValueError("nodes_per_axis must be >= 2")
        x, w = _gauss_nodes(nodes_per_axis)
        ax1 = nu_est * x
        w1 = nu_est * w
        ax2, w2 = tensor_rule(ax1, w1, dim - 1)
        return cls(float(nu_est), int(nodes_per_axis), int(dim), ax1, w1, ax2, w2)

    @property
    def m1(self) -> int:
        return self.axis1_nodes.size

    @property
    def m2(self) -> int:
        return self.axis2_nodes.shape[0]

    def axis1_points(self) -> np.ndarray:
        """Axis-1 slice embedded in R^d: (t1, 0, ..., 0)."""
        pts = np.zeros((self.m1, self.dim))
        pts[:, 0] = self.axis1_nodes
        return pts

    def axis2_points(self) -> np.ndarray:
        """Axis-2 slice embedded in R^d: (0, t2)."""
        pts = np.zeros((self.m2, self.dim))
        pts[:, 1:] = self.axis2_nodes
        return pts

    def full_points(self) -> np.ndarray:
        """All (t1_i, t2_j) pairs, row index i * m2 + j."""
        cached = getattr(self, "_full_points", None)
        if cached is None:
            t1 = np.repeat(self.axis1_nodes, self.m2)[:, None]
            t2 = np.tile(self.axis2_nodes, (self.m1, 1))
            cached = np.hstack([t1, t2])
            self._full_points = cached
        return cached

    def polar(self) -> tuple:
        """(r, theta) of the axis-1, axis-2 and full point sets (d = 2).

        t = r (cos 2 pi theta, sin 2 pi theta); computed once per grid.
        """
        cached = getattr(self, "_polar", None)
        if cached is None:
            cached = tuple(
                _to_polar(pts) for pts in (self.axis1_points(), self.axis2_points(), self.full_points())
            )
            self._polar = cached
        return cached

    def polar_table(self, k_cut: int) -> "PolarTable":
        """Closed-form table of the axis-1, axis-2 and full point sets (d = 2)
        for cutoff k_cut; built on first use, then cached per k_cut."""
        tables = getattr(self, "_polar_tables", None)
        if tables is None:
            tables = self._polar_tables = {}
        table = tables.get(k_cut)
        if table is None:
            table = tables[k_cut] = PolarTable.build(k_cut, self.polar())
        return table


@dataclass(eq=False)
class EcfCache:
    """Empirical characteristic function values on a grid.

    full[i, j] = psi-tilde(t1_i, t2_j); marg1[i] = psi-tilde(t1_i, 0);
    marg2[j] = psi-tilde(0, t2_j); n is the sample size.
    """

    full: np.ndarray
    marg1: np.ndarray
    marg2: np.ndarray
    n: int


def ecf(sample, grid: EvalGrid, chunk: int = 1 << 15) -> EcfCache:
    """Empirical characteristic function of the sample on the grid.

    Accepts an (n, d) array or any object with a .data attribute holding
    one.  Observations are accumulated in fixed-order chunks, so the result
    is deterministic for given inputs.
    """
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2:
        raise ValueError("sample must be a 2-d array of shape (n, d)")
    n, d = data.shape
    if n < 1:
        raise ValueError("sample is empty")
    if d != grid.dim:
        raise ValueError(f"sample dimension {d} does not match grid dimension {grid.dim}")
    if not np.all(np.isfinite(data)):
        raise ValueError("sample contains non-finite values")
    m1, m2 = grid.m1, grid.m2
    full = np.zeros((m1, m2), dtype=complex)
    s1 = np.zeros(m1, dtype=complex)
    s2 = np.zeros(m2, dtype=complex)
    for start in range(0, n, chunk):
        block = data[start : start + chunk]
        e1 = np.exp(1j * np.multiply.outer(grid.axis1_nodes, block[:, 0]))
        e2 = np.exp(1j * (grid.axis2_nodes @ block[:, 1:].T))
        full += e1 @ e2.T
        s1 += e1.sum(axis=1)
        s2 += e2.sum(axis=1)
    return EcfCache(full / n, s1 / n, s2 / n, n)


def _to_polar(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0]) / (2.0 * np.pi)
    return r, theta


def closed_form_applies(f: AngleDensity, dim: int) -> bool:
    """Whether Psi_f has the closed Bessel form: circle Fourier densities."""
    return isinstance(f, FourierDensity) and dim == 2


@dataclass(frozen=True, eq=False)
class PolarTable:
    """What the closed form needs of a family of polar point sets, given K.

    radii is the sorted union of the sets' radii and index[s] maps set s
    into it; phases[s][p - 1] = exp(-2 i pi p theta) on set s for
    p = 1..K, built by repeated multiplication.
    """

    k_cut: int
    radii: np.ndarray
    index: tuple
    phases: tuple

    @classmethod
    def build(cls, k_cut: int, polar_sets) -> "PolarTable":
        """Table of (r, theta) point sets for cutoff k_cut."""
        radii, inverse = np.unique(np.concatenate([r for r, _ in polar_sets]), return_inverse=True)
        bounds = np.cumsum([r.size for r, _ in polar_sets])[:-1]
        phases = []
        for _, theta in polar_sets:
            base = np.exp(-2j * np.pi * theta)
            phase = np.ones_like(base)
            powers = []
            for _ in range(k_cut):
                phase = phase * base
                powers.append(phase)
            phases.append(tuple(powers))
        return cls(int(k_cut), radii, tuple(np.split(inverse, bounds)), tuple(phases))


def _psi_polar(coeffs: np.ndarray, radius: float, table: PolarTable, cfg: BesselEvalConfig) -> list:
    """Closed-form circle characteristic function on each point set of a table.

    Returns, per set, sum_p i^p c_p J_p(r * radius) exp(-2 i pi p theta) for
    p = -K..K; coefficients vanish beyond the cutoff, so the sum is exact.
    Conjugate pairs collapse to J_0 + sum_{p>=1} i^p J_p * 2 Re(c_p e^{-2 i pi p theta}).
    One series call covers all sets: each set gathers its rows of the table.
    """
    k_cut = table.k_cut
    jtab = _series_multi(np.arange(k_cut + 1, dtype=float), table.radii * radius, cfg)
    out = []
    for index, phases in zip(table.index, table.phases):
        jmat = jtab[:, index]
        vals = np.asarray(coeffs[k_cut] * jmat[0], dtype=complex)
        ipow = 1.0 + 0.0j
        for p in range(1, k_cut + 1):
            ipow = ipow * 1j
            vals += ipow * jmat[p] * (2.0 * np.real(coeffs[k_cut + p] * phases[p - 1]))
        out.append(vals)
    return out


@lru_cache(maxsize=16)
def _angle_quad(dim_minus_1: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre tensor rule on [0, 1]^{d-1}, ~256^min(d-1,2) nodes."""
    per_axis = 256 if dim_minus_1 <= 2 else max(8, int(round(65_536 ** (1.0 / dim_minus_1))))
    x, w = _gauss_nodes(per_axis)
    return tensor_rule(0.5 * (x + 1.0), 0.5 * w, dim_minus_1)


def _psi_quadrature(
    f: AngleDensity, radius: float, pts: np.ndarray, chunk: int = 128
) -> np.ndarray:
    """Angle-box quadrature of exp(i R <t, S(u)>) f(u), unclipped density."""
    dm1 = pts.shape[1] - 1
    nodes, weights = _angle_quad(dm1)
    if isinstance(f, FourierDensity):
        fvals = fourier_series(f.coeffs, nodes[:, 0])
    else:
        fvals = np.asarray(f.fn(nodes), dtype=float)
    payload = weights * fvals
    svecs = sphere_map(nodes)
    out = np.empty(pts.shape[0], dtype=complex)
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        out[start : start + chunk] = np.exp(1j * radius * (block @ svecs.T)) @ payload
    return out


def psi_model(
    f: AngleDensity,
    radius: float,
    t,
    method: str | None = None,
    bessel_cfg: BesselEvalConfig = DEFAULT_CONFIG,
):
    """Model characteristic function Psi_{f,R}(t) = E exp(i R <t, S(U)>).

    t is a single d-vector or an (m, d) batch.  method selects the route:
    "closed" (circle Fourier densities only), "quadrature", or None for
    automatic (closed form whenever it applies).
    """
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    t_arr = np.asarray(t, dtype=float)
    single = t_arr.ndim == 1
    pts = t_arr[None, :] if single else t_arr
    if pts.ndim != 2 or pts.shape[1] != f.dim_minus_1 + 1:
        raise ValueError("t must have d = dim_minus_1 + 1 coordinates")
    closed_ok = closed_form_applies(f, pts.shape[1])
    if method is None:
        method = "closed" if closed_ok else "quadrature"
    if method == "closed":
        if not closed_ok:
            raise ValueError("closed form requires a circle Fourier density")
        table = PolarTable.build(f.cutoff, [_to_polar(pts)])
        out = _psi_polar(f.coeffs, float(radius), table, bessel_cfg)[0]
    elif method == "quadrature":
        out = _psi_quadrature(f, float(radius), pts)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out[0] if single else out


def psi_model_marginals(
    f: AngleDensity, radius: float, grid: EvalGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Psi on the axis-1 slice, the axis-2 slice, and the full grid.

    Returns (vals1, vals2, full) with full shaped (m1, m2).  The route is
    psi_model's automatic one, run on the same coordinates, so each value
    equals the pointwise psi_model call bit for bit; the closed form reads
    the grid's cached PolarTable for the density's cutoff and makes one
    Bessel series call for all three point sets.
    """
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if grid.dim != f.dim_minus_1 + 1:
        raise ValueError("grid dimension does not match the density")
    if closed_form_applies(f, grid.dim):
        vals = _psi_polar(f.coeffs, float(radius), grid.polar_table(f.cutoff), DEFAULT_CONFIG)
    else:
        point_sets = (grid.axis1_points(), grid.axis2_points(), grid.full_points())
        vals = [_psi_quadrature(f, float(radius), pts) for pts in point_sets]
    return vals[0], vals[1], vals[2].reshape(grid.m1, grid.m2)
