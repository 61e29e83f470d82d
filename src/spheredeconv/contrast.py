"""Contrast functionals measuring how far a candidate (f, R) is from
explaining the observed characteristic function.

The key algebraic fact: with independent noise coordinates, the joint
characteristic function of the observations factors as Psi(t) Phi_eps(t)
with Phi_eps(t1, t2) = Phi_1(t1) Phi_2(t2).  Consequently

    Psi_cand(t) psi~(t1, 0) psi~(0, t2) - psi~(t) Psi_cand(t1, 0) Psi_cand(0, t2)

vanishes identically (up to sampling error in the ECF psi~) exactly when
the candidate matches the truth, without knowing the noise law.  The
empirical contrast integrates the squared modulus of this quantity over
the frequency box; the population one replaces the ECF by the true law's
Psi_{f*,R*} Phi_eps, and as Phi_eps(t) = Phi_eps(t1, 0) Phi_eps(0, t2) its
difference is Phi_eps(t) times the noiseless one.  Either is the squared
norm of one weighted residual vector (_combine over a ContrastContext),
which the estimators minimize by least squares.  A descent probe
(contrast_probe) returns that residual and its exact Jacobian as a
callable, through _combine's linearisation, from the one model evaluation
both share: psi_model_grid's values and derivatives callable, each one
(..., m1, m2) array, as the ECF is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import EvalGrid, default_grid, ecf, psi_model_grid
from .geometry import AngleDensity, FourierDensity, fourier_form


@dataclass(eq=False)
class ContrastContext:
    """Grid plus ref, an observation law's characteristic function on the
    grid, one (m1, m2) array (ValueError for any other shape): a sample's
    ECF (from_sample) or a population one (contrast_m_oracle).  Reused
    across many evaluations, with what every residual reuses: the grid's
    weights' roots root_weights = sqrt(w1_i w2_j) and ref's marginals'
    product ref_outer = ref1 ref2^T.  It keeps no evaluation: a fit's
    audits are the grid's to keep (EvalGrid.kept_psi), and a descent
    probe's its own (contrast_probe)."""

    grid: EvalGrid
    ref: np.ndarray
    root_weights: np.ndarray = field(init=False, repr=False)
    ref_outer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shape = (self.grid.m1, self.grid.m2)
        if getattr(self.ref, "shape", None) != shape:
            raise ValueError(f"the ECF must be one array of the grid's shape {shape}")
        self.root_weights = np.sqrt(np.multiply.outer(self.grid.axis1_weights, self.grid.axis2_weights))
        self.ref_outer = np.multiply.outer(*_marginals(self.ref))

    @classmethod
    def from_sample(cls, sample, grid: EvalGrid) -> "ContrastContext":
        return cls(grid, ecf(sample, grid))


def _marginals(full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The marginal lines (t1, 0) and (0, t2) of a grid evaluation shaped
    (..., m1, m2), as views: its column m2 // 2 and its last row."""
    return full[..., full.shape[-1] // 2], full[..., -1, :]


def _weighted(diff: np.ndarray, ctx: ContrastContext) -> np.ndarray:
    """Re and Im parts of diff, each times ctx.root_weights over its last two
    axes (m1, m2) and flattened, then concatenated."""
    lead, root = diff.shape[:-2], ctx.root_weights
    return np.concatenate(((root * diff.real).reshape(*lead, -1), (root * diff.imag).reshape(*lead, -1)), axis=-1)


def _combine(psi: np.ndarray, ctx: ContrastContext) -> np.ndarray:
    """Weighted residual of psi ref1 ref2 - ref psi1 psi2 over the grid's box.

    psi is shaped (..., m1, m2) with any leading radius axes, psi1 and psi2
    its _marginals, and ref and ref_outer = ref1 ref2^T are ctx's.  Returns
    the Re and Im parts of the difference, each times sqrt(w1_i w2_j),
    flattened to rows of length 2 m1 m2, so the quadrature of each row's
    squared modulus is its squared norm.  The products are elementwise, so
    each row equals, bit for bit, a call on that radius's psi alone.
    """
    psi1, psi2 = _marginals(psi)
    diff = psi * ctx.ref_outer - ctx.ref * (psi1[..., :, None] * psi2[..., None, :])
    return _weighted(diff, ctx)


def _combine_jacobian(psi: np.ndarray, dpsi: np.ndarray, ctx: ContrastContext) -> np.ndarray:
    """_combine(psi, ctx) linearised in psi: its (2 m1 m2, P) Jacobian.

    psi is shaped (m1, m2) and dpsi (P, m1, m2), one leading row per
    parameter: d diff = d psi ref1 ref2 - ref (d psi1 psi2 + psi1 d psi2).
    """
    psi1, psi2 = _marginals(psi)
    d1, d2 = _marginals(dpsi)
    dprod = d1[:, :, None] * psi2 + psi1[:, None] * d2[:, None, :]
    ddiff = dpsi * ctx.ref_outer - ctx.ref * dprod
    return _weighted(ddiff, ctx).T


def contrast_residual(f: AngleDensity, radius, ctx: ContrastContext) -> np.ndarray:
    """Weighted residual of the candidate (f, R) against ctx.ref; its
    squared norm is contrast_mn.

    radius may be a 1-d array of radii, a fit's audit: then one row per
    radius, from one evaluation at all of them (a Fourier density's from
    the grid's store, EvalGrid.kept_psi) and one _combine call, each row
    equal, bit for bit, to the residual at that radius alone.  A single
    radius is evaluated afresh.
    """
    if np.ndim(radius) == 1 and isinstance(f, FourierDensity):
        psi = ctx.grid.kept_psi(f, np.asarray(radius, dtype=float))
    else:
        psi = psi_model_grid(f, radius, ctx.grid)[0]
    return _combine(psi, ctx)


def contrast_probe(f: AngleDensity, radius: float, ctx: ContrastContext, radius_only: bool = False) -> tuple:
    """A descent probe: (contrast_residual(f, radius, ctx), jacobian), both from
    one psi_model_grid evaluation.  jacobian() returns the residual's Jacobian
    in (R, Re c_1, Im c_1, ..., Re c_K, Im c_K), or in R alone when
    radius_only, shape (2 m1 m2, P): it multiplies the Psi arrays the
    residual compared by the evaluation's derivatives(radius_only), which
    call no kernel and make no pass.  Off the closed form only dPsi/dR
    exists, and the coefficient columns are refused before any work."""
    if not (radius_only or isinstance(f, FourierDensity)):
        raise ValueError("the coefficient columns need the closed form; pass radius_only=True for dPsi/dR")
    psi, derivatives = psi_model_grid(f, radius, ctx.grid)
    return _combine(psi, ctx), lambda: _combine_jacobian(psi, derivatives(radius_only), ctx)


def contrast_mn(f: AngleDensity, radius: float, ctx: ContrastContext) -> float:
    """Contrast of the candidate (f, R) against ctx.ref, empirical on a
    sample's ECF.  Nonnegative; zero exactly when the candidate's
    characteristic-function products reproduce ref's on the whole grid.
    """
    r = contrast_residual(f, radius, ctx)
    return float(r @ r)


def contrast_m_oracle(
    f: AngleDensity,
    radius: float,
    f_star: AngleDensity,
    r_star: float,
    noise,
    grid: EvalGrid | None = None,
) -> float:
    """Population contrast: contrast_mn on the context whose ref is the true
    observation law's characteristic function Psi_{f*,R*} Phi_eps, the
    ECF's large-sample limit.

    Requires a noise model exposing a closed-form characteristic function,
    char_fn.  Zero at the truth up to roundoff; positive at any
    candidate generating a different observation law.  grid defaults to
    default_grid() of the density's dimension, the grid of every fit and
    sweep given none.  Circle callables enter in their fourier_form.
    """
    if not hasattr(noise, "char_fn"):
        raise ValueError("noise model does not expose a closed-form characteristic function")
    f, f_star = fourier_form(f), fourier_form(f_star)
    if grid is None:
        grid = default_grid(f.dim_minus_1 + 1)
    phi = noise.char_fn(grid.points()).reshape(grid.m1, grid.m2)
    return contrast_mn(f, radius, ContrastContext(grid, psi_model_grid(f_star, r_star, grid)[0] * phi))
