"""Sampling the observation model: latent points on a sphere plus additive
noise with independent coordinates.

An observation is Y = C + R * S(U) + eps, with U drawn from an angular
density on [0, 1]^{d-1} and eps drawn coordinatewise from a noise model
with a known characteristic function.

Randomness policy: every draw uses numpy's PCG64 generator.  generate()
takes one integer seed and derives two independent child streams through
SeedSequence(seed).spawn(2) -- child 0 for the angles, child 1 for the
noise -- so samples are reproducible across platforms and releases that
keep PCG64 stable.

Memory: generate() fills one output-sized buffer.  Beside it, it holds
the draws, one stage at a time: the angles and one rejection batch's
candidates and heights, then the angles, then the noise.  The stream
layout fixes their sizes: the same calls, in the same order, at the same
sizes.  Everything computed from the draws is scaled and summed in place
or worked through in slices of geometry.ROW_SLICE rows, so its peak is at
most 3.5 times the bytes of the sample it returns (2.0 on scenarios 1 and
3, 2.1 on 2, 3.2 on 4, whose exp(cos) envelope draws 2.6 n candidates).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import AngleDensity, sample_angles, sphere_map, uniform_density, vonmises_like

NOISE_KINDS = ("none", "isotropic_gaussian", "diagonal_gaussian", "mixture_dirac_exp")

# mixture noise: point mass at -1 w.p. 1/2, Exponential with this mean w.p. 1/2
MIXTURE_POINT = -1.0
MIXTURE_MEAN = 0.12

_BIN_MAGIC = b"SPHSMP01"


@dataclass(eq=False)
class NoiseModel:
    """Additive noise with independent coordinates.

    kind is one of NOISE_KINDS.  mean/sigma are broadcast per coordinate
    where they apply.  Every kind has a closed-form characteristic
    function, exposed through char_fn.
    """

    kind: str
    dim: int
    mean: np.ndarray | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.mean is not None:
            self.mean = np.broadcast_to(np.asarray(self.mean, dtype=float), (self.dim,)).copy()
        if self.sigma is not None:
            self.sigma = np.broadcast_to(np.asarray(self.sigma, dtype=float), (self.dim,)).copy()
            if np.any(self.sigma < 0.0):
                raise ValueError("sigma must be nonnegative")

    @classmethod
    def none(cls, dim: int = 2) -> "NoiseModel":
        return cls("none", dim)

    @classmethod
    def isotropic_gaussian(cls, sigma: float, dim: int = 2) -> "NoiseModel":
        return cls("isotropic_gaussian", dim, mean=np.zeros(dim), sigma=float(sigma))

    @classmethod
    def diagonal_gaussian(cls, mean, sigma) -> "NoiseModel":
        mean = np.asarray(mean, dtype=float)
        return cls("diagonal_gaussian", mean.size, mean=mean, sigma=sigma)

    @classmethod
    def mixture_dirac_exp(cls, dim: int = 2) -> "NoiseModel":
        return cls("mixture_dirac_exp", dim)

    def coord_char(self, j: int, t):
        """Characteristic function of the j-th noise coordinate."""
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.ones_like(t_arr, dtype=complex)
        if self.kind in ("isotropic_gaussian", "diagonal_gaussian"):
            mu = self.mean[j]
            sd = self.sigma[j]
            return np.exp(1j * mu * t_arr - 0.5 * (sd * t_arr) ** 2)
        # mixture: 0.5 exp(-i t) + 0.5 / (1 - i * MIXTURE_MEAN * t)
        return 0.5 * np.exp(1j * MIXTURE_POINT * t_arr) + 0.5 / (1.0 - 1j * MIXTURE_MEAN * t_arr)

    def char_fn(self, t) -> np.ndarray:
        """Joint characteristic function at frequency rows t (shape (..., d))."""
        t_arr = np.asarray(t, dtype=float)
        if t_arr.shape[-1] != self.dim:
            raise ValueError("frequency dimension mismatch")
        out = np.ones(t_arr.shape[:-1], dtype=complex)
        for j in range(self.dim):
            out = out * self.coord_char(j, t_arr[..., j])
        return out


def draw_noise(model: NoiseModel, n: int, seed) -> np.ndarray:
    """Draw n noise vectors; deterministic given the seed.

    The mixture draws both candidate streams (uniform selector first, then
    the exponential) for every entry, then selects, keeping the stream
    layout independent of the selector outcomes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "none":
        return np.zeros((n, model.dim))
    if model.kind in ("isotropic_gaussian", "diagonal_gaussian"):
        eps = rng.standard_normal((n, model.dim))
        eps *= model.sigma
        eps += model.mean
        return eps
    pick_point = rng.random((n, model.dim)) < 0.5
    expo = rng.exponential(MIXTURE_MEAN, (n, model.dim))
    np.copyto(expo, MIXTURE_POINT, where=pick_point)
    return expo


@dataclass(eq=False)
class Scenario:
    """An observation model: density, noise and sphere parameters; dim is the density's dim_minus_1 + 1."""

    scenario_id: int
    density: AngleDensity
    noise: NoiseModel
    r_star: float = 3.0
    c_star: np.ndarray = None

    def __post_init__(self) -> None:
        if self.noise.dim != self.dim:
            raise ValueError(f"dimensions disagree: density on S^{self.density.dim_minus_1}, noise dim {self.noise.dim}")
        if self.c_star is None:
            self.c_star = np.zeros(self.dim)
        self.c_star = np.asarray(self.c_star, dtype=float)
        if self.c_star.shape != (self.dim,):
            raise ValueError(f"c_star must have shape ({self.dim},)")

    @property
    def dim(self) -> int:
        return self.density.dim_minus_1 + 1

    def noiseless(self) -> "Scenario":
        return replace(self, noise=NoiseModel.none(self.dim))


def scenario(scenario_id: int) -> Scenario:
    """Benchmark scenarios on the circle, R = 3 and C = 0 throughout.

    1: uniform angles, small isotropic Gaussian noise (sigma 0.12);
    2: uniform angles, per-coordinate Dirac/exponential mixture noise;
    3: uniform angles, standard Gaussian noise (sigma 1);
    4: exp(cos) angles, non-centered diagonal Gaussian noise.
    """
    if scenario_id == 1:
        return Scenario(1, uniform_density(1), NoiseModel.isotropic_gaussian(0.12, 2))
    if scenario_id == 2:
        return Scenario(2, uniform_density(1), NoiseModel.mixture_dirac_exp(2))
    if scenario_id == 3:
        return Scenario(3, uniform_density(1), NoiseModel.isotropic_gaussian(1.0, 2))
    if scenario_id == 4:
        return Scenario(
            4,
            vonmises_like(),
            NoiseModel.diagonal_gaussian(mean=(-1.6, 2.5), sigma=(0.2, 0.57)),
        )
    raise ValueError(f"unknown scenario {scenario_id!r}")


@dataclass(eq=False)
class Sample:
    """Observations plus the provenance needed to reproduce them."""

    data: np.ndarray
    seed: int | None = None
    scenario_id: int | None = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] < 2:
            raise ValueError("data must have shape (n, d) with d >= 2")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def generate(scn: Scenario, n: int, seed: int) -> Sample:
    """Draw n observations Y = C + R * S(U) + eps; see module docstring
    for the seed-derivation contract."""
    if n < 1:
        raise ValueError("n must be >= 1")
    angle_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    data = sphere_map(sample_angles(scn.density, n, angle_ss))
    data *= scn.r_star
    data += scn.c_star
    data += draw_noise(scn.noise, n, noise_ss)
    return Sample(data, seed=seed, scenario_id=scn.scenario_id)


def save_sample(sample: Sample, path) -> None:
    """Write sample to path: the binary format when path ends in .bin, CSV otherwise."""
    (_save_sample_bin if str(path).endswith(".bin") else _save_sample_csv)(sample, path)


def load_sample(path) -> Sample:
    """The sample save_sample wrote to path, read by the same suffix rule."""
    return (_load_sample_bin if str(path).endswith(".bin") else _load_sample_csv)(path)


def _save_sample_csv(sample: Sample, path) -> None:
    """Write one observation per row; the leading comment line records the
    seed and scenario.  Floats use 17 significant digits (lossless).  Rows
    are written one at a time, so no text of the whole file is built."""
    path = Path(path)
    seed_txt = "-" if sample.seed is None else str(sample.seed)
    scen_txt = "-" if sample.scenario_id is None else str(sample.scenario_id)
    try:
        with path.open("w") as fh:
            fh.write(f"# seed={seed_txt} scenario={scen_txt}\n")
            fh.write(",".join(f"y{j + 1}" for j in range(sample.dim)) + "\n")
            for row in sample.data:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sample to {path}: {exc}") from exc


def _load_sample_csv(path) -> Sample:
    """The sample _save_sample_csv wrote.  Blank lines are skipped; the
    file is read line by line into one growing float buffer."""
    import array  # imported on first use, so importing the package does not load it

    path = Path(path)
    try:
        with path.open() as fh:
            lines = (ln for raw in fh for ln in raw.splitlines() if ln.strip())
            head = list(itertools.islice(lines, 3))
            if len(head) < 3 or not head[0].startswith("#"):
                raise ValueError(f"{path}: not a sample CSV (missing header)")
            fields = dict(part.split("=", 1) for part in head[0].lstrip("# ").split())
            seed = None if fields.get("seed", "-") == "-" else int(fields["seed"])
            scen = None if fields.get("scenario", "-") == "-" else int(fields["scenario"])
            values = array.array("d", [float(v) for v in head[2].split(",")])
            width, rows = len(values), 1
            for ln in lines:
                row = [float(v) for v in ln.split(",")]
                if len(row) != width:
                    raise ValueError(f"{path}: data row {rows + 1} has {len(row)} values, the first has {width}")
                values.extend(row)
                rows += 1
    except OSError as exc:
        raise OSError(f"cannot read sample from {path}: {exc}") from exc
    return Sample(np.frombuffer(values).reshape(rows, width), seed=seed, scenario_id=scen)


def _save_sample_bin(sample: Sample, path) -> None:
    """Compact binary format: 8-byte magic, little-endian u64 n and d,
    i64 seed and scenario (-1 encodes absent), then n*d little-endian f64."""
    path = Path(path)
    seed = -1 if sample.seed is None else int(sample.seed)
    scen = -1 if sample.scenario_id is None else int(sample.scenario_id)
    header = _BIN_MAGIC + struct.pack("<QQqq", sample.n, sample.dim, seed, scen)
    try:
        path.write_bytes(header + sample.data.astype("<f8").tobytes())
    except OSError as exc:
        raise OSError(f"cannot write sample to {path}: {exc}") from exc


def _load_sample_bin(path) -> Sample:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read sample from {path}: {exc}") from exc
    head = len(_BIN_MAGIC) + struct.calcsize("<QQqq")
    if len(blob) < head or blob[: len(_BIN_MAGIC)] != _BIN_MAGIC:
        raise ValueError(f"{path}: not a sample binary (bad magic)")
    n, d, seed, scen = struct.unpack("<QQqq", blob[len(_BIN_MAGIC) : head])
    body = np.frombuffer(blob[head:], dtype="<f8")
    if body.size != n * d:
        raise ValueError(f"{path}: truncated payload ({body.size} of {n * d} values)")
    return Sample(
        body.reshape(n, d).astype(float),
        seed=None if seed < 0 else int(seed),
        scenario_id=None if scen < 0 else int(scen),
    )


def derive_seed(base_seed: int, scenario_id: int, n: int, replication: int) -> int:
    """Per-cell seed: SeedSequence(base_seed, spawn_key=(scenario, n, rep))
    reduced to one 64-bit word.  Documented so runs can be reproduced
    without the benchmark driver."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(scenario_id, n, replication))
    return int(ss.generate_state(1, np.uint64)[0])
