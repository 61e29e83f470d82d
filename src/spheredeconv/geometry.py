"""Geometry of the latent sphere: angle parametrization, angular densities,
sampling, and density serialization.

Angles live in the unit box [0, 1]^{d-1}.  The first angle is a full turn
(2 pi u_1), the remaining ones are half turns (pi u_j), so the map covers
the unit sphere in R^d exactly once.

Circle densities (d = 2) are represented either by truncated Fourier
coefficients c_k = int_0^1 f(u) exp(+2i pi k u) du, k = -K..K, or by a raw
callable; higher dimensions use callables only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError

# compactness bound on sum_{k != 0} |c_k|^2 for Fourier densities
COEFF_NORM_BOUND = 10.0
# fourier_form counts harmonics |k| > TAIL_CUTOFF of a circle callable as zero (refusing
# it if they hold over TAIL_BOUND of int f^2) and cuts it where sum_{k > K} |c_k| <= TAIL_BOUND
TAIL_CUTOFF = 64
TAIL_BOUND = 1e-13
# rows per slice where sphere_map and sample_angles work through a batch
ROW_SLICE = 2**14


def sphere_map(u):
    """Map angles u in [0, 1]^{d-1} to a unit vector in R^d.

    Accepts a single point (scalar for d = 2, or a length d-1 vector) or a
    batch of shape (n, d-1); returns shape (d,) or (n, d) accordingly.
    Works through ROW_SLICE rows at a time, so its temporaries stay that
    size; each row's value is the same whatever the batch.
    """
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError("u must be a (d-1)-vector or an (n, d-1) batch")
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValueError("angles must lie in the unit box [0, 1]^{d-1}")
    n, dm1 = pts.shape
    out = np.empty((n, dm1 + 1))
    for lo in range(0, n, ROW_SLICE):
        rows = slice(lo, lo + ROW_SLICE)
        full_turn = 2.0 * np.pi * pts[rows, 0]
        out[rows, 0] = np.cos(full_turn)
        running = np.sin(full_turn)
        for j in range(1, dm1):
            half_turn = np.pi * pts[rows, j]
            out[rows, j] = running * np.cos(half_turn)
            running = running * np.sin(half_turn)
        out[rows, dm1] = running
    return out[0] if single else out


def fourier_series(coeffs, x):
    """Evaluate sum_k c_k exp(-2i pi k x), k = -K..K, unclipped.

    Real-valued when the coefficients are conjugate-symmetric; the real
    part is returned.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size % 2 == 0:
        raise ValueError("coeffs must have odd length 2K+1")
    k_cut = c.size // 2
    x_arr = np.asarray(x, dtype=float)
    ks = np.arange(-k_cut, k_cut + 1)
    phases = np.exp(-2j * np.pi * np.multiply.outer(x_arr, ks))
    return np.real(phases @ c)


@dataclass(eq=False)
class FourierDensity:
    """Circle density stored as Fourier coefficients c_{-K}..c_K.

    Conventions: c_k = int_0^1 f(u) exp(+2i pi k u) du, so that
    f(u) = sum_k c_k exp(-2i pi k u).  Unit mass forces c_0 = 1, realness
    forces c_{-k} = conj(c_k), and sum_{k != 0} |c_k|^2 must stay below
    COEFF_NORM_BOUND (a compactness constraint on the admissible class).
    """

    coeffs: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be a vector of odd length 2K+1 for k = -K..K")
        k_cut = c.size // 2
        if abs(c[k_cut] - 1.0) > 1e-12:
            raise ValueError("c_0 must equal 1 (unit mass)")
        if np.max(np.abs(np.conj(c[::-1]) - c)) > 1e-12:
            raise ValueError("coefficients must satisfy c_{-k} = conj(c_k)")
        off_mass = float(np.sum(np.abs(c) ** 2)) - abs(c[k_cut]) ** 2
        if off_mass > COEFF_NORM_BOUND + 1e-12:
            raise ValueError(
                f"sum_(k!=0) |c_k|^2 = {off_mass:.6g} exceeds the bound {COEFF_NORM_BOUND:g}"
            )
        c.flags.writeable = False
        self.coeffs = c

    @property
    def cutoff(self) -> int:
        return self.coeffs.size // 2

    @property
    def dim_minus_1(self) -> int:
        return 1

    @classmethod
    def from_half(cls, half: Sequence[complex]) -> "FourierDensity":
        """Build from c_1..c_K alone; c_0 = 1 and negative k by conjugation."""
        h = np.asarray(half, dtype=complex).ravel()
        full = np.concatenate([np.conj(h[::-1]), [1.0 + 0.0j], h])
        return cls(full)

    @classmethod
    def uniform(cls, name: str | None = None) -> "FourierDensity":
        return cls(np.array([1.0 + 0.0j]), name=name)


@dataclass(eq=False, frozen=True)
class CallableDensity:
    """Density on [0, 1]^{d-1} given as a vectorized callable.

    fn maps an (n, d-1) array to n nonnegative values and must integrate
    to 1 over the unit box (checked at construction with ~1e4 quadrature
    nodes).  Frozen, so that a circle callable's fourier_form, kept on it
    once projected, stays its own.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim_minus_1: int = 1
    name: str | None = None

    def __post_init__(self) -> None:
        if self.dim_minus_1 < 1:
            raise ValueError("dim_minus_1 must be >= 1")
        mass = _unit_box_integral(self.fn, self.dim_minus_1)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {mass:.8f}, not 1")

    @cached_property
    def _fourier(self) -> "FourierDensity":
        # fourier_form of a circle callable, projected on first use; a refusal
        # keeps nothing, so it is raised again on every use
        nodes, weights = _unit_box_grid(1, _axis_node_count(1))
        vals = np.asarray(self.fn(nodes), dtype=float)
        name, full = self.name or "circle callable", _rule_coefficients(vals, TAIL_CUTOFF)
        half = full[TAIL_CUTOFF + 1 :]
        tails = np.cumsum(np.abs(half[::-1]))[::-1]  # tails[K] = sum_{K < k <= TAIL_CUTOFF} |c_k|
        k_cut = int(np.argmax(tails <= TAIL_BOUND))
        if tails[k_cut] > TAIL_BOUND:
            raise ConfigError(f"{name}: harmonics do not fall below {TAIL_BOUND:g} by k = {TAIL_CUTOFF}")
        past = float(vals**2 @ weights) - float(np.sum(np.abs(full) ** 2))
        if past > TAIL_BOUND:
            raise ConfigError(f"{name}: harmonics past k = {TAIL_CUTOFF} carry {past:.3g} of int f^2")
        try:
            return FourierDensity.from_half(half[:k_cut])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc


AngleDensity = Union[FourierDensity, CallableDensity]


def _axis_node_count(dim_minus_1: int) -> int:
    # ~1e4 total quadrature nodes, split across axes
    return {1: 10_001, 2: 101}.get(dim_minus_1, max(9, int(round(10_000 ** (1.0 / dim_minus_1)))))


def tensor_rule(x: np.ndarray, w: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of the 1-d rule (x, w) over dim axes.

    Nodes come in row-major order, shape (len(x)**dim, dim); each weight is
    the product of its axis weights.
    """
    axes = [g.ravel() for g in np.meshgrid(*([np.arange(x.size)] * dim), indexing="ij")]
    nodes = np.column_stack([x[i] for i in axes])
    weights = np.ones(nodes.shape[0])
    for i in axes:
        weights *= w[i]
    return nodes, weights


def _unit_box_grid(dim_minus_1: int, per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor trapezoid nodes and weights on [0, 1]^{d-1}."""
    w1 = np.full(per_axis, 1.0 / (per_axis - 1))
    w1[0] *= 0.5
    w1[-1] *= 0.5
    return tensor_rule(np.linspace(0.0, 1.0, per_axis), w1, dim_minus_1)


def _unit_box_integral(fn, dim_minus_1: int) -> float:
    nodes, weights = _unit_box_grid(dim_minus_1, _axis_node_count(dim_minus_1))
    return float(np.asarray(fn(nodes), dtype=float) @ weights)


def uniform_density(dim_minus_1: int = 1) -> AngleDensity:
    """Uniform angular density; Fourier form on the circle, callable above."""
    if dim_minus_1 == 1:
        return FourierDensity.uniform(name="uniform")
    return CallableDensity(lambda u: np.ones(u.shape[0]), dim_minus_1=dim_minus_1, name="uniform")


def vonmises_like() -> CallableDensity:
    """Smooth unimodal circle density proportional to exp(cos(2 pi u))."""
    raw = lambda u: np.exp(np.cos(2.0 * np.pi * np.asarray(u)[:, 0]))
    z = _unit_box_integral(raw, 1)
    return CallableDensity(lambda u: raw(u) / z, dim_minus_1=1, name="vonmises_like")


def density_eval(f: AngleDensity, u):
    """Pointwise density values, clipped at zero.

    Clipping matters only for Fourier densities whose trigonometric series
    dips below zero; the rejection sampler targets this clipped version.
    Model characteristic functions use the unclipped series instead.
    """
    pts = np.asarray(u, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None] if f.dim_minus_1 == 1 and pts.size != f.dim_minus_1 else pts[None, :]
    if pts.shape[1] != f.dim_minus_1:
        raise ValueError("points have the wrong number of angle coordinates")
    if isinstance(f, FourierDensity):
        vals = fourier_series(f.coeffs, pts[:, 0])
    else:
        vals = np.asarray(f.fn(pts), dtype=float)
    return np.maximum(vals, 0.0)


def fourier_coefficients(f: AngleDensity, k_cut: int) -> np.ndarray:
    """c_{-K}..c_K for K = k_cut, c_k = int_0^1 f(u) exp(+2i pi k u) du.

    A circle callable is evaluated once on the quadrature rule, and all its
    c_k come from _rule_coefficients; c_{-k} = conj(c_k) exactly, as f is
    real.  Fourier densities are zero-padded beyond their cutoff.
    """
    if isinstance(f, FourierDensity):
        out, m = np.zeros(2 * k_cut + 1, dtype=complex), min(k_cut, f.cutoff)
        out[k_cut - m : k_cut + m + 1] = f.coeffs[f.cutoff - m : f.cutoff + m + 1]
        return out
    if f.dim_minus_1 != 1:
        raise ValueError("Fourier coefficients are defined for circle densities only")
    nodes, _ = _unit_box_grid(1, _axis_node_count(1))
    return _rule_coefficients(np.asarray(f.fn(nodes), dtype=float), k_cut)


def _rule_coefficients(vals: np.ndarray, k_cut: int) -> np.ndarray:
    """c_{-K}..c_K of the trapezoid rule on the nodes u_j = j / M, j = 0..M,
    from the values vals[j] = f(u_j).

    The rule is periodic, exp(2i pi k u_M) = 1 = exp(2i pi k u_0), so its two
    end nodes fold into one, f(0) and f(1) averaged at u = 0, and
    c_k = (1/M) sum_{j < M} folded_j exp(2i pi k j / M) is the conjugate of
    one real FFT of the M folded values, scaled.  The rule resolves
    harmonics up to k = M / 2; a larger K is refused.
    """
    m = vals.size - 1
    if k_cut > m // 2:
        raise ValueError(f"the {m + 1}-node rule resolves harmonics up to k = {m // 2}, not {k_cut}")
    folded = vals[:m].copy()
    folded[0] = 0.5 * (vals[0] + vals[m])
    half = np.conj(np.fft.rfft(folded)[: k_cut + 1]) / m
    return np.concatenate([np.conj(half[:0:-1]), half])


def fourier_form(f: AngleDensity) -> AngleDensity:
    """A circle callable as a FourierDensity with c_0 = 1 and c_{-k} = conj(c_k);
    any other density unchanged.  The cutoff is the first K < TAIL_CUTOFF with
    sum_{K < k <= TAIL_CUTOFF} |c_k| <= TAIL_BOUND.  A callable with no such K,
    with more than TAIL_BOUND of int f^2 past |k| = TAIL_CUTOFF (Parseval on
    the coefficients' own rule), or past COEFF_NORM_BOUND is refused with
    ConfigError.  f is evaluated once, on that rule, and its projection kept
    on f, so every later call returns the same FourierDensity."""
    if isinstance(f, FourierDensity) or f.dim_minus_1 != 1:
        return f
    return f._fourier


def sphere_mean(f: AngleDensity) -> np.ndarray:
    """Barycenter integral S-bar(f) = int S(u) f(u) du in R^d.

    On the circle this is (Re c_1, Im c_1); otherwise tensor quadrature.
    """
    if isinstance(f, FourierDensity):
        c1 = fourier_coefficients(f, 1)[2]
        return np.array([c1.real, c1.imag])
    nodes, weights = _unit_box_grid(f.dim_minus_1, _axis_node_count(f.dim_minus_1))
    vals = np.asarray(f.fn(nodes), dtype=float)
    return sphere_map(nodes).T @ (vals * weights)


def _sup_estimate(f: AngleDensity) -> float:
    """Envelope constant for rejection sampling: grid sup times 1.01.

    A fixed grid can miss very narrow spikes; densities handled here are
    smooth trigonometric polynomials or user callables of similar scale.
    """
    dm1 = f.dim_minus_1
    per_axis = 1024 if dm1 == 1 else (64 if dm1 == 2 else 17)
    xs = (np.arange(per_axis) + 0.5) / per_axis
    pts, _ = tensor_rule(xs, np.full(per_axis, 1.0 / per_axis), dm1)
    return float(np.max(density_eval(f, pts))) * 1.01


def sample_angles(f: AngleDensity, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. angle vectors from f; returns shape (n, d-1).

    Deterministic given the seed (PCG64 stream).  Every density is drawn
    by rejection sampling from the uniform envelope on [0, 1]^{d-1}: each
    batch draws its candidates, then their heights, and keeps the accepted
    candidates in order.  The test runs over ROW_SLICE rows at a time,
    straight into the output, and stops once it is full.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    dm1 = f.dim_minus_1
    envelope = max(_sup_estimate(f), 1e-12)
    out = np.empty((n, dm1))
    filled = 0
    while filled < n:
        batch = max(int((n - filled) * envelope * 1.2) + 16, 64)
        cand = rng.random((batch, dm1))
        height = rng.random(batch)
        height *= envelope
        for lo in range(0, batch, ROW_SLICE):
            rows = slice(lo, lo + ROW_SLICE)
            kept = cand[rows][height[rows] <= density_eval(f, cand[rows])][: n - filled]
            out[filled : filled + len(kept)] = kept
            filled += len(kept)
            if filled == n:
                break
    return out


def density_to_json(f: AngleDensity) -> str:
    """Serialize a density; the named form round-trips named presets."""
    if getattr(f, "name", None) in _NAMED_DENSITIES:
        payload = {"type": "named", "name": f.name}
    elif isinstance(f, FourierDensity):
        payload = {"type": "fourier", "coeffs": [[c.real, c.imag] for c in f.coeffs]}
    else:
        raise ValueError("callable densities without a registered name cannot be serialized")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def density_from_json(text: str) -> AngleDensity:
    payload = json.loads(text)
    kind = payload.get("type")
    if kind == "fourier":
        coeffs = np.array([complex(re, im) for re, im in payload["coeffs"]])
        return FourierDensity(coeffs)
    if kind == "named":
        name = payload.get("name")
        if name not in _NAMED_DENSITIES:
            raise ValueError(f"unknown named density {name!r}")
        return _NAMED_DENSITIES[name]()
    raise ValueError(f"unknown density type {kind!r}")


_NAMED_DENSITIES: dict[str, Callable[[], AngleDensity]] = {
    "uniform": lambda: uniform_density(1),
    "vonmises_like": vonmises_like,
}
