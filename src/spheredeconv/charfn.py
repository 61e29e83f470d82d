"""Characteristic functions on a deterministic evaluation grid.

The contrast compares products of characteristic functions over a box
[-nu_est, nu_est]^d split as (1, d-1): the first frequency coordinate on
one axis, the remaining d-1 coordinates flattened into a tensor block.
Integrals over the box use tensor Gauss-Legendre quadrature, so repeated
evaluations are deterministic and smooth in the model parameters.

The grid carries only the half box t1 <= 0.  Every characteristic function
the contrast compares belongs to a real law, so psi(-t) = conj psi(t) and
the integrand |diff(t)|^2 is even under t -> -t.  Gauss-Legendre nodes are
exactly antisymmetric and their weights exactly symmetric, so keeping the
ceil(m/2) axis-1 nodes with t1 <= 0 and doubling every kept weight but the
centre node's integrates any such integrand exactly as the full box rule
does: each dropped node (t1, t2), t1 > 0, mirrors the kept node
(-t1, -t2), which has the same weight, since the axis-2 block keeps all
its nodes.

Model side: Psi_{f,R}(t) = int exp(i R <t, S(u)>) f(u) du.  One rule, in
one function (_psi) that psi_model and psi_model_grid both call, picks the
route: a FourierDensity takes the closed form, which in polar coordinates
t = r (cos 2 pi theta, sin 2 pi theta) is the Bessel sum
sum_p i^p c_p J_p(r R) exp(-2 i pi p theta); any other density takes
Gauss-Legendre quadrature of the angle integral on the unit box, which
the fits reach in d >= 3 only: they take circle callables in fourier_form.
psi_model_grid is the one route from a grid to Psi values and their
derivatives.

The contrast compares Psi(t) with the product of its marginals Psi(t1, 0)
Psi(0, t2), lines of the full grid as the node count is odd: each grid
evaluation is one call on EvalGrid.points(), built once per grid, and
one array shaped (..., m1, m2), off which contrast._marginals reads the
lines as views.  The closed form reads a PolarTable
of a point set: the sorted distinct radii, each point's index into them,
and the phase powers exp(-2 i pi p theta), p = 1..K, scaled by the sign of
i^p and the 2 of conjugate pairs.  EvalGrid caches one table of its
points per cutoff K, built on the first probe, so each grid
evaluation calls the Bessel kernel bessel_rows once, on the radii times
R.  An evaluation may be at one R or at a 1-d array of them (the fits'
audit of 16 radii), and is still one bessel_rows call, on the radii times
every R, with a leading batch axis on what it returns; the kernel's
columns and the sums below are pointwise, so each R's values equal those
of an evaluation at that R alone, bit for bit.  The closed form then sums
over all orders at once: the
(K, m) weights 2 Re(c_p e_p), with the sign of i^p folded in, are built
once per evaluation, and Psi and dPsi/dR are the same signed sums over p
of Bessel rows times weights, even orders into the real part and odd ones
into the imaginary part.  The grid and its tables hold no fit's state:
on either route psi_model_grid returns (Psi, derivatives), and
derivatives(radius_only) builds the derivative rows from what the
evaluation holds -- the closed form's Bessel rows and weights, or dPsi/dR
from the same quadrature pass -- so the exact derivatives in
(R, Re c_p, Im c_p) cost no kernel call or pass of their own.  A grid
keeps the values of the fits' audits, batches of a Fourier density
(EvalGrid.kept_psi); a descent probe keeps its own evaluation for its
Jacobian (contrast.contrast_probe).

Data side: the empirical characteristic function on the full grid, one
(m1, m2) array like the model's, is one accumulator of exp(i <t, x - m>)
about the centre m of the sample's core, multiplied once by exp(i <t, m>),
its phase split exactly: the contrast is translation invariant, and the
cost follows the core, not the sample's offset or extremes.  The core,
the whole of a clean sample, is summed by Chebyshev moments and the
Jacobi-Anger expansion (DLMF 10.12.3) truncated at the order
negligible_order(nu_est L) for its half-width L; the few observations
outside it, outliers or a bulk wider than the window, directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bessel import bessel_rows, negligible_order
from .errors import ConfigError, _as_float, _as_int
from .geometry import AngleDensity, CallableDensity, FourierDensity, sphere_map, tensor_rule

# half-width of the frequency window [-nu_est, nu_est]^d of every fit, sweep
# and population contrast given no grid
DEFAULT_NU_EST = 1.0
# Gauss-Legendre nodes per frequency axis of a grid built without a count
DEFAULT_NODES = 33
# the most nodes per axis: numpy's leggauss is tested up to 100 nodes
MAX_NODES = 99


def default_grid(dim: int = 2) -> "EvalGrid":
    """EvalGrid.build(dim=dim), the grid of every fit, sweep and population
    contrast given none; built once per dimension, whatever the call's form,
    so its cached tables and kept evaluations serve every later call.  A dim
    EvalGrid.build refuses is refused with its ValueError."""
    return _default_grid(_as_int("dim", dim))


@lru_cache(maxsize=None)
def _default_grid(dim: int) -> "EvalGrid":
    return EvalGrid.build(dim=dim)


# evaluations a grid keeps (EvalGrid.kept_psi): a sweep alternates two audits
# per grid, the joint and the known fit's, and a 16-radius audit's values on
# the default grid take 0.14 MB, so four serve a sweep on the default grid and
# two other audits there, such as default fits'
_KEPT_PSI = 4


@dataclass(eq=False)
class EvalGrid:
    """Tensor Gauss-Legendre grid on [-nu_est, nu_est]^d with split (1, d-1),
    folded onto the half box t1 <= 0.

    nodes_per_axis = m is odd, so the rule's centre node is exactly 0.0.
    axis1_nodes carry the first frequency coordinate: the (m + 1) / 2 nodes
    t1 <= 0, the last of them 0.0, with every weight but that centre node's
    doubled.  The rule integrates any integrand even under t -> -t exactly
    as the full box rule does, because the nodes are exactly antisymmetric
    and the weights exactly symmetric.  axis2_nodes hold the whole flattened
    (d-1)-dimensional block, one row per tensor node, with
    axis2_nodes[::-1] == -axis2_nodes and row m2 // 2 all zero.  Full-grid
    quantities are indexed [i, j] for (axis1 node i, axis2 node j); the
    axis-1 slice (t1, 0) is column m2 // 2 and the axis-2 slice (0, t2) the
    last row.

    Kept once built: the points, a PolarTable per cutoff, and the Psi
    values of the _KEPT_PSI latest used batch evaluations of a Fourier
    density, the fits' audits (kept_psi), keyed on the cutoff and the bytes
    of the coefficients and radii.  Nothing else is kept here: a descent
    probe (one radius) keeps its own evaluation (contrast.contrast_probe),
    and an audit off the closed form is evaluated afresh.
    """

    nu_est: float
    nodes_per_axis: int
    dim: int
    axis1_nodes: np.ndarray
    axis1_weights: np.ndarray
    axis2_nodes: np.ndarray
    axis2_weights: np.ndarray

    @classmethod
    def build(cls, dim: int = 2, nu_est: float = DEFAULT_NU_EST, nodes_per_axis: int = DEFAULT_NODES) -> "EvalGrid":
        """The grid of these arguments, taken as (int, float, int); ConfigError,
        a ValueError, for values it refuses, before any work."""
        dim, nodes_per_axis = _as_int("dim", dim), _as_int("nodes_per_axis", nodes_per_axis)
        nu_est = _as_float("nu_est", nu_est)
        if dim < 2:
            raise ConfigError("dim must be an integer >= 2")
        if not (0.0 < nu_est < math.inf):
            raise ConfigError("nu_est must be positive and finite")
        # only an odd rule has the node 0 that the axis slices lie on
        if not (3 <= nodes_per_axis <= MAX_NODES) or nodes_per_axis % 2 == 0:
            raise ConfigError(f"nodes_per_axis must be an odd integer in [3, {MAX_NODES}], got {nodes_per_axis}")
        x, w = leggauss(nodes_per_axis)
        ax, wx = nu_est * x, nu_est * w
        # the nodes ascend, so the first (m + 1) / 2 are those with t1 <= 0
        kept = (nodes_per_axis + 1) // 2
        ax1 = ax[:kept]
        w1 = np.where(ax1 < 0.0, 2.0 * wx[:kept], wx[:kept])
        # the weights are positive, so the largest product is that of the largest ones
        if not math.isfinite(math.prod([float(w1.max())] + [float(wx.max())] * (dim - 1))):
            raise ConfigError(f"nu_est = {nu_est:g} is too large: the {dim}-d grid's weight products overflow")
        ax2, w2 = tensor_rule(ax, wx, dim - 1)
        return cls(nu_est, nodes_per_axis, dim, ax1, w1, ax2, w2)

    @property
    def m1(self) -> int:
        return self.axis1_nodes.size

    @property
    def m2(self) -> int:
        return self.axis2_nodes.shape[0]

    def points(self) -> np.ndarray:
        """All (t1_i, t2_j) pairs, row i * m2 + j; built once per grid."""
        cached = getattr(self, "_points", None)
        if cached is None:
            cached = np.empty((self.m1 * self.m2, self.dim))
            cached[:, 0] = np.repeat(self.axis1_nodes, self.m2)
            cached[:, 1:] = np.tile(self.axis2_nodes, (self.m1, 1))
            self._points = cached
        return cached

    def polar_table(self, k_cut: int) -> "PolarTable":
        """Closed-form table of points() (d = 2) for cutoff k_cut; built on
        first use, then cached per k_cut."""
        tables = self.__dict__.setdefault("_polar_tables", {})
        if k_cut not in tables:
            tables[k_cut] = PolarTable.build(k_cut, self.points())
        return tables[k_cut]

    def kept_psi(self, f: FourierDensity, radii: np.ndarray) -> np.ndarray:
        """psi_model_grid(f, radii, self)'s values from the grid's store, or
        computed, made read-only and stored, the least recently used entry
        evicted.  Only the values are kept, not the Bessel rows under them."""
        store = self.__dict__.setdefault("_kept_psi", {})
        key = (f.cutoff, f.coeffs.tobytes(), radii.tobytes())
        psi = store.pop(key, None)
        if psi is None:
            psi = psi_model_grid(f, radii, self)[0]
            psi.flags.writeable = False
            if len(store) >= _KEPT_PSI:
                del store[next(iter(store))]
        store[key] = psi
        return psi


def _expi(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for real phase: cos and sin written into one complex array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


# OpenBLAS runs a real product of m n k < 2 * 65536 * 4 multiply-adds, and a
# complex one of an eighth of that, on one thread; a larger one may round
# differently on several (an 18 x 130 by 130 x 34 complex product does).  The
# ECF sums its products over slices small enough to stay below those sizes,
# so its bits do not depend on the BLAS thread count
_ONE_THREAD_PRODUCT = 2 * 65536 * 4
# observations per ecf chunk and at most in its subsample
_MOMENT_CHUNK = 1 << 12
# The core's orders keep (J + 1)^d <= _WINDOW (1 + m1)(1 + m2): its moment
# block holds about _WINDOW times the m1 m2 entries of a tail observation's
# product.  Per observation (CPU time, one BLAS thread) moments cost as much
# as direct sums at 16 times on the 33-node d = 2 grid (J = 98), 26 on a
# 9-node one, 13 on a 17-node d = 3 grid (J = 33), 6.5 on the 33-node one
# (J = 48).  At 12 the default grid's core reaches J = 84: nu_est L = 44
_WINDOW = 12.0


def ecf(sample, grid: EvalGrid) -> np.ndarray:
    """Empirical characteristic function of the sample on grid.points(),
    shaped (m1, m2) over the folded axis-1 nodes and the axis-2 block.

    Accepts an (n, d) array or any object with a .data attribute holding
    one.  One (m1, m2) array of sums of exp(i <t, x - m>) on the full grid
    takes Chebyshev moments of the core (_core) and direct sums of the few
    observations outside it; multiplied once by exp(i <t, m>) (_phase), it
    is the sample's ECF.  Fixed-order
    chunks and products small enough for one BLAS thread make it bitwise
    stable whatever the BLAS thread count.
    """
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2:
        raise ValueError("sample must be a 2-d array of shape (n, d)")
    n, d = data.shape
    if n < 1:
        raise ValueError("sample is empty")
    if d != grid.dim:
        raise ValueError(f"sample dimension {d} does not match grid dimension {grid.dim}")
    # max and min propagate NaN, so finite extremes mean a finite sample;
    # taken column by column, which numpy reduces far faster than axis 0
    lo = np.array([col.min() for col in data.T])
    hi = np.array([col.max() for col in data.T])
    if not np.isfinite([lo, hi]).all():
        raise ValueError("sample contains non-finite values")
    centre, scale, orders, keep = _core(data, grid, lo, hi)
    sums = _ecf_moments(data, keep, centre, scale, orders, grid) / n
    sums *= np.multiply.outer(_phase(grid.axis1_nodes[:, None], centre[:1]), _phase(grid.axis2_nodes, centre[1:]))
    return sums


def _core(data: np.ndarray, grid: EvalGrid, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Centre, half-width and Chebyshev order of the core box per coordinate,
    and the mask of its observations, None when it holds them all.  A sample
    with nothing past the far-out fences of a strided subsample (Tukey's,
    three interquartile ranges past its quartiles), whose orders fit the
    window, is the core about its midrange; else the box spans the
    subsample's bulk inside the fences, widened to its orders' reach, within
    the window."""
    n, d = data.shape
    cap = math.floor((_WINDOW * (1 + grid.m1) * (1 + grid.m2)) ** (1.0 / d)) - 1
    sub = np.sort(data[:: -(-n // _MOMENT_CHUNK)], axis=0)
    q1, q3 = sub[len(sub) // 4], sub[3 * len(sub) // 4]
    inner, outer = q1 - 3.0 * (q3 - q1), q3 + 3.0 * (q3 - q1)
    clean = np.all(inner <= lo) and np.all(hi <= outer)
    if not clean:
        bulk = np.where((inner <= sub) & (sub <= outer), sub, np.nan)
        lo, hi = np.nanmin(bulk, axis=0), np.nanmax(bulk, axis=0)
    centre, scale = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    orders = np.minimum(negligible_order(grid.nu_est * scale), cap + 1).astype(int)
    if clean and np.all(orders <= cap):
        return centre, scale, orders, None
    orders = np.minimum(orders, cap)
    scale = _reach(orders) / grid.nu_est
    keep = np.ones(n, dtype=bool)
    for col, low, high in zip(data.T, centre - scale, centre + scale):
        keep &= (low <= col) & (col <= high)
    return centre, scale, orders, keep


def _reach(order):
    """The largest x with negligible_order(x) <= order: the root of
    x + 10 x^(1/3) = order - 4 (Cardano), and 0 below order 5."""
    q = np.maximum(order - 4.0, 0.0)
    s = np.sqrt(q * q / 4.0 + (10.0 / 3.0) ** 3)
    return (np.cbrt(q / 2.0 + s) + np.cbrt(q / 2.0 - s)) ** 3


def _phase(nodes: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """exp(i <t, centre>) at each row t of nodes, to roundoff at any size:
    Dekker's two-product splits each t_c centre_c exactly into p + e, on
    26-bit halves cut at the binary exponent, and exp(i (p + e)) = exp(i p) exp(i e)."""

    def halves(a):
        mant, expo = np.frexp(a)
        high = np.ldexp(np.rint(mant * 2.0**26), expo - 26)
        return high, a - high

    out = np.ones(nodes.shape[0], dtype=complex)
    for t, m in zip(nodes.T, centre):
        p = t * m
        (t1, t2), (m1, m2) = halves(t), halves(m)
        out *= _expi(p) * _expi(((t1 * m1 - p) + t1 * m2 + t2 * m1) + t2 * m2)
    return out


def _ecf_direct(tail: np.ndarray, grid: EvalGrid) -> np.ndarray:
    """Sums of exp(i t1 x_1) exp(i t2 . x_2) over the rows x of tail, shaped
    (m1, m2), in complex products small enough for one BLAS thread; the
    axis-2 rows past the all-zero node m2 // 2 mirror the first ones, as
    axis2_nodes[::-1] == -axis2_nodes."""
    sums = np.zeros((grid.m1, grid.m2), dtype=complex)
    step = max(1, (_ONE_THREAD_PRODUCT // 8 - 1) // sums.size)
    for start in range(0, tail.shape[0], step):
        part = tail[start : start + step]
        first = _expi(grid.axis2_nodes[: grid.m2 // 2 + 1] @ part[:, 1:].T)
        rows1 = _expi(np.multiply.outer(grid.axis1_nodes, part[:, 0]))
        sums += rows1 @ np.concatenate([first, first[grid.m2 // 2 - 1 :: -1].conj()]).T
    return sums


def _jacobi_anger_table(nodes: np.ndarray, scale: float, order: int) -> np.ndarray:
    """B[k, j] = eps_j i^j J_j(t_k scale), j = 0..order, at the nodes t_k:
    the Chebyshev coefficients of exp(i t_k x), |x| <= scale, in T_j(x / scale)
    (DLMF 10.12.3), eps_0 = 1 and eps_j = 2 after.  J_j(-z) = (-1)^j J_j(z),
    so a negative node takes (-i)^j = conj(i^j), and B at -t is conj(B at t)."""
    jmat = bessel_rows(order, np.abs(nodes) * scale)[: order + 1].T
    j = np.arange(order + 1)
    unit = np.array([1.0, 1j, -1.0, -1j])[j % 4] * np.where(j > 0, 2.0, 1.0)
    return jmat * np.where(nodes[:, None] < 0.0, np.conj(unit), unit)


def _small_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in row slices of a, each complex product below an eighth of
    _ONE_THREAD_PRODUCT, so it stays on one BLAS thread."""
    rows = max(1, (_ONE_THREAD_PRODUCT // 8 - 1) // max(1, a.shape[1] * b.shape[1]))
    return np.concatenate([a[k : k + rows] @ b for k in range(0, a.shape[0], rows)])


def _ecf_moments(data, keep, centre, scale, orders, grid) -> np.ndarray:
    """ecf's sums, over the core (the rows where keep holds, all when it is
    None) from Chebyshev moments: exp(i t y) = sum_j eps_j i^j J_j(t L) T_j(y / L)
    for |y| <= L (_jacobi_anger_table), so the sums are Bessel-weighted sums
    of the moments M[j, k] = sum T_j(y_1 / L_1) T_k(y_2 / L_2) ..., y = x - centre.
    The rest of each chunk, the tail, goes to _ecf_direct, centred.

    Each chunk of _MOMENT_CHUNK rows, its core centred, builds the rows
    T_0..T_J of all coordinates by T_{j+1} = 2 y T_j - T_{j-1}, two ufunc
    calls per order; each slice of it combines coordinates 2..d by a row-wise
    Kronecker product in tensor_rule's row-major order and adds the real
    product of the axis-1 rows and that block into M.  Once per call, with
    a coefficient table B_c per coordinate, full = B_1 M B_2^T, B_2 the
    Kronecker product of the tables of coordinates 2..d, applied one axis
    at a time.  Returns full, shaped (m1, m2), plus the tail's sums."""
    n, d = data.shape
    sizes = [j + 1 for j in orders]
    width = min(_MOMENT_CHUNK, n if keep is None else np.count_nonzero(keep))
    cheb = np.empty((max(sizes), d, width))
    cheb[0] = 1.0
    twice = np.empty((d, width))
    # an all-zero coordinate has the one row T_0 = 1; its y = 0 / 1 is never read
    divisor = np.where(scale > 0.0, scale, 1.0)[:, None]
    block_size = math.prod(sizes[1:])
    moments = np.zeros((sizes[0], block_size))
    step = max(1, min(width, (_ONE_THREAD_PRODUCT - 1) // moments.size))
    kron = np.empty((block_size, step)) if d > 2 else None
    tail = np.zeros((grid.m1, grid.m2), dtype=complex)
    for start in range(0, n, _MOMENT_CHUNK):
        block = data[start : start + _MOMENT_CHUNK]
        inside = True if keep is None else keep[start : start + _MOMENT_CHUNK]
        if not np.all(inside):
            tail += _ecf_direct(block[~inside] - centre, grid)
            block = block[inside]
        b = block.shape[0]
        rows, tw = cheb[..., :b], twice[:, :b]
        if len(rows) > 1:
            np.subtract(block.T, centre[:, None], out=rows[1])
            rows[1] /= divisor
            np.multiply(rows[1], 2.0, out=tw)
            for j in range(1, len(rows) - 1):
                np.multiply(tw, rows[j], out=rows[j + 1])
                rows[j + 1] -= rows[j - 1]
        for k in range(0, b, step):
            part = rows[..., k : k + step]
            w = part.shape[-1]
            second = part[: sizes[1], 1]
            for c in range(2, d):
                pairs = kron[: len(second) * sizes[c], :w].reshape(len(second), sizes[c], w)
                second = np.multiply(second[:, None], part[: sizes[c], c], out=pairs).reshape(-1, w)
            moments += part[: sizes[0], 0] @ second.T
    full = _small_product(_jacobi_anger_table(grid.axis1_nodes, scale[0], orders[0]), moments.astype(complex))
    # every axis of the block carries the same 1-d nodes; the last runs fastest
    axis_nodes = grid.axis2_nodes[: grid.nodes_per_axis, -1]
    for c in range(1, d):
        table = _jacobi_anger_table(axis_nodes, scale[c], orders[c])
        # contract the leading remaining order axis, appending its node axis
        moved = full.reshape(grid.m1, sizes[c], -1).transpose(0, 2, 1).reshape(-1, sizes[c])
        full = _small_product(moved, table.T).reshape(grid.m1, -1)
    return full + tail


@dataclass(frozen=True, eq=False)
class PolarTable:
    """What the closed form needs of a point set in R^2, given K.

    radii holds the points' distinct radii, sorted, and index maps each
    point into them; phases, shape (K, m), holds the phase powers
    e_p = exp(-2 i pi p theta), p = 1..K, built by repeated multiplication
    and scaled by 2 (-1)^floor(p/2): i^p is that sign times 1 at even p and
    times i at odd p, and conjugate pairs bring the 2.
    """

    k_cut: int
    radii: np.ndarray
    index: np.ndarray
    phases: np.ndarray

    @classmethod
    def build(cls, k_cut: int, pts: np.ndarray) -> "PolarTable":
        """Table of the (m, 2) points pts = r (cos 2 pi theta, sin 2 pi theta)."""
        radii, index = np.unique(np.hypot(pts[:, 0], pts[:, 1]), return_inverse=True)
        theta = np.arctan2(pts[:, 1], pts[:, 0]) / (2.0 * np.pi)
        base = np.exp(-2j * np.pi * theta)
        phases = np.empty((k_cut, base.size), dtype=complex)
        phase = np.ones_like(base)
        for p in range(1, k_cut + 1):
            phase = phase * base
            phases[p - 1] = (2.0 if p % 4 < 2 else -2.0) * phase
        return cls(int(k_cut), radii, index, phases)


def _signed_parts(vals: np.ndarray, terms: np.ndarray) -> None:
    """Add sum_p i^p terms[..., p - 1, :] into the complex vals, for real
    terms of orders p = 1..K (second-to-last axis) that already carry their
    sign (-1)^floor(p/2): the even orders into the real part, the odd ones
    into the imaginary part, one order after another, so each point's sum is
    the same for any number of points or radii (a reduction over p may pair
    up one column's terms differently)."""
    parts = [vals.real, vals.imag]
    for p in range(1, terms.shape[-2] + 1):
        parts[p % 2] += terms[..., p - 1, :]


def _psi_polar(coeffs: np.ndarray, radius, table: PolarTable) -> tuple[np.ndarray, tuple]:
    """Closed-form circle characteristic function on a table's points, at a
    radius or at each of a 1-d array of radii (a leading batch axis).

    Returns (vals, (jmat, weights)): vals = sum_p i^p c_p J_p(r * radius) exp(-2 i pi p theta)
    for p = -K..K, exact since coefficients vanish beyond the cutoff; the
    rows jmat[..., p, :] = J_p(r * radius), p = 0..max(K, 1), of one kernel
    call on the distinct radii times every radius, each point gathering its
    row; and the (K, m) weights (-1)^floor(p/2) 2 Re(c_p e_p),
    e_p = exp(-2 i pi p theta), into which conjugate pairs collapse, from the
    table's scaled phases, shared by every radius.  vals is c_0 J_0 plus the
    even orders' J_p weights_p in its real part and the odd orders' in its
    imaginary part (_signed_parts).  The kernel's columns and the sums are
    pointwise, so each radius's values and rows equal, bit for bit, those of
    a call at that radius alone.
    """
    k_cut = table.k_cut
    radii = np.asarray(radius, dtype=float)
    rows = bessel_rows(k_cut, np.multiply.outer(radii, table.radii).ravel())
    jmat = np.moveaxis(rows.reshape(-1, *radii.shape, table.radii.size), 0, -2).take(table.index, axis=-1)
    weights = np.real(coeffs[k_cut + 1 :, None] * table.phases)
    vals = np.asarray(coeffs[k_cut] * jmat[..., 0, :], dtype=complex)
    _signed_parts(vals, jmat[..., 1 : k_cut + 1, :] * weights)
    return vals, (jmat, weights)


def _psi_polar_jacobian(radius, table: PolarTable, aux: tuple, radius_only: bool = False) -> np.ndarray:
    """Derivatives of the closed form on a table's points, from the Bessel
    rows and weights (aux) that _psi_polar returned at this radius or array
    of radii.

    Returns dvals of shape (..., 1 + 2K, m), after any batch axis, holding
    dPsi/dR, then dPsi/dRe c_p and dPsi/dIm c_p for p = 1..K, or of shape
    (..., 1, m) with dPsi/dR alone.  With e_p = exp(-2 i pi p theta),
        dPsi/dRe c_p = i^p J_p(rR) 2 Re e_p,   dPsi/dIm c_p = -i^p J_p(rR) 2 Im e_p,
        dPsi/dR = -r J_1(rR) + sum_{p>=1} i^p [r J_{p-1}(rR) - (p/R) J_p(rR)] 2 Re(c_p e_p),
    by J_0' = -J_1 and J_p'(x) = J_{p-1}(x) - (p/x) J_p(x) (DLMF 10.6.2), so
    no order past max(K, 1) enters and nothing divides by r.  dPsi/dR is
    the same signed sum over p as _psi_polar's, on the same weights, and
    as pointwise, so each radius's rows equal those at that radius alone.
    """
    jmat, weights = aux
    k_cut = table.k_cut
    r = table.radii[table.index]
    lead = jmat.shape[:-2]
    dvals = np.zeros((*lead, 1 if radius_only else 1 + 2 * k_cut, r.size), dtype=complex)
    dvals[..., 0, :].real = -r * jmat[..., 1, :]
    orders = np.arange(1.0, k_cut + 1.0)[:, None] / np.asarray(radius)[..., None, None]
    slopes = r * jmat[..., :k_cut, :] - orders * jmat[..., 1 : k_cut + 1, :]
    _signed_parts(dvals[..., 0, :], slopes * weights)
    if not radius_only:
        # the coefficient rows of order p: i^p J_p 2 Re e_p, then -i^p J_p 2 Im e_p
        rows = jmat[..., 1 : k_cut + 1, :]
        pairs = dvals[..., 1:, :].reshape(*lead, k_cut, 2, r.size)
        for col, part in ((0, rows * table.phases.real), (1, -rows * table.phases.imag)):
            pairs[..., 1::2, col, :].real = part[..., 1::2, :]
            pairs[..., 0::2, col, :].imag = part[..., 0::2, :]
    return dvals


@lru_cache(maxsize=16)
def _angle_quad(dim_minus_1: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre tensor rule on [0, 1]^{d-1}, ~256^min(d-1,2) nodes."""
    per_axis = 256 if dim_minus_1 <= 2 else max(8, int(round(65_536 ** (1.0 / dim_minus_1))))
    x, w = leggauss(per_axis)
    return tensor_rule(0.5 * (x + 1.0), 0.5 * w, dim_minus_1)


def _psi_quadrature(f: CallableDensity, radius: float, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle-box quadrature of exp(i R <t, S(u)>) f(u) for a callable density,
    and of dPsi/dR, that of i <t, S(u)> times it, from the same pass."""
    nodes, weights = _angle_quad(pts.shape[1] - 1)
    payload = weights * np.asarray(f.fn(nodes), dtype=float)
    svecs = sphere_map(nodes)
    # even blocks of at most _ONE_THREAD_PRODUCT waves (8 MB) and at least 4
    # points, and a lone point as two rows, the first kept: a one-row
    # block's product would round differently
    m, pts = pts.shape[0], np.repeat(pts, 2, axis=0) if pts.shape[0] == 1 else pts
    out, d_radius = np.empty((2, pts.shape[0]), dtype=complex)
    blocks = max(1, -(-pts.shape[0] // max(4, _ONE_THREAD_PRODUCT // nodes.shape[0])))
    edges = np.arange(blocks + 1) * pts.shape[0] // blocks
    for lo, hi in zip(edges[:-1], edges[1:]):
        # one complex product, not a real one each for cos and sin: real dgemv
        # rounds a call's last rows differently, so grid values would stop
        # equalling pointwise psi_model calls bit for bit
        proj = pts[lo:hi] @ svecs.T
        waves = _expi(radius * proj)
        out[lo:hi] = waves @ payload
        waves *= proj
        d_radius[lo:hi] = 1j * (waves @ payload)
    return out[:m], d_radius[:m]


def _psi(f: AngleDensity, radius, pts: np.ndarray, tables) -> tuple:
    """Psi at the (m, d) points pts, at a radius or at each of a 1-d array
    of radii (a leading batch axis): (vals, rows), vals shaped (..., m) and
    rows(radius_only) the derivative rows, shaped (..., P, m).  The one
    route choice: the closed Bessel form for a FourierDensity, on
    tables(f.cutoff), the PolarTable of pts; the angle quadrature, one pass
    per radius, for any other density."""
    radii = np.asarray(radius, dtype=float)
    if radii.ndim > 1 or not np.all(radii > 0.0):
        raise ValueError("radius must be positive, or a 1-d array of positive radii")
    if pts.ndim != 2 or pts.shape[1] != f.dim_minus_1 + 1:
        raise ValueError("the points must have d = dim_minus_1 + 1 coordinates")
    if isinstance(f, FourierDensity):
        table = tables(f.cutoff)
        vals, aux = _psi_polar(f.coeffs, radii, table)
        return vals, lambda radius_only: _psi_polar_jacobian(radii, table, aux, radius_only)
    vals, d_radius = np.empty((2, *radii.shape, pts.shape[0]), dtype=complex)
    for b in np.ndindex(radii.shape):
        vals[b], d_radius[b] = _psi_quadrature(f, float(radii[b]), pts)
    return vals, lambda radius_only: d_radius[..., None, :]


def psi_model(f: AngleDensity, radius: float, t):
    """Model characteristic function Psi_{f,R}(t) = E exp(i R <t, S(U)>) at
    one radius: the closed form for a FourierDensity, the angle quadrature
    for any other density (_psi).  t is a single d-vector or an (m, d) batch."""
    t_arr = np.asarray(t, dtype=float)
    pts = t_arr[None, :] if t_arr.ndim == 1 else t_arr
    out = _psi(f, float(radius), pts, lambda k_cut: PolarTable.build(k_cut, pts))[0]
    return out[0] if t_arr.ndim == 1 else out


def psi_model_grid(f: AngleDensity, radius, grid: EvalGrid) -> tuple:
    """One evaluation of Psi on grid.points(): (psi, derivatives), at a
    radius or at each of a 1-d array of radii (a leading batch axis).

    psi is shaped (..., m1, m2), each value equal, bit for bit, to psi_model
    at that point in a call on the same points: both take _psi's route.  The
    closed form is one kernel call for all the radii, through the grid's
    PolarTable for the density's cutoff; off it, one quadrature pass per
    radius.
    derivatives(radius_only=False) returns the derivatives in
    (R, Re c_1, Im c_1, ..., Re c_K, Im c_K), or in R alone when
    radius_only, shaped (..., P, m1, m2), one row per parameter after any
    batch axis, from what the evaluation holds: the closed form's Bessel
    rows and weights, or dPsi/dR from the same quadrature pass, the only
    derivative off the closed form.  It calls no kernel and makes no pass.
    """
    vals, rows = _psi(f, radius, grid.points(), grid.polar_table)
    on_grid = lambda a: a.reshape(*a.shape[:-1], grid.m1, grid.m2)
    return on_grid(vals), lambda radius_only=False: on_grid(rows(radius_only))
