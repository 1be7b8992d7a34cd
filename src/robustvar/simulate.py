"""Seeded generators for heavy-tailed VAR benchmarks and their relatives.

Each data-generating process validates its own stability criterion at
construction time and simulates by iterating its recursion from a zero state,
discarding a burn-in prefix: step t writes its state into row t + 1 of one
state array.  A drawn path is an (n, p) array of its own, so the burn-in rows
and the noise are freed when the draw returns.  Each path draws all its noise
from its own seeded generator, and linear VAR paths stacked into one recursion
(:func:`simulate_paths`) equal their single paths bit for bit, so results are
independent of how replications are batched or scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import _check_int, _check_real, _check_shape
from ._seeds import derive_seed
from ._tables import read_table, write_table
from .var import VarModel, _radius, _Unchecked, companion_matrix

__all__ = [
    "StabilityError",
    "SimulationError",
    "StudentTNoise",
    "GaussianNoise",
    "ScaleMixtureNoise",
    "SignPartition",
    "IntervalPartition",
    "indicator_map",
    "VarTDgp",
    "ArchVarDgp",
    "UnivariateArchDgp",
    "BekkVarDgp",
    "ThresholdVarDgp",
    "RcVarDgp",
    "gen_er_transition",
    "sample_noise",
    "simulate",
    "simulate_paths",
    "write_series_csv",
    "read_series_csv",
]


class StabilityError(ValueError):
    """A process parameterization violates its stability criterion."""


class SimulationError(RuntimeError):
    """A simulated path became non-finite; retry with the next substream."""


def _require_stable(radius: float, what: str) -> None:
    """Raise :class:`StabilityError` naming ``what`` unless the stability ``radius`` is below 1."""
    if radius >= 1:
        raise StabilityError(f"{what} {radius:.6g} >= 1")


# ---------------------------------------------------------------------------
# noise specifications


@dataclass(frozen=True)
class StudentTNoise:
    """Per-coordinate iid Student-t noise; df > 2 so the variance is finite."""

    df: float

    def __post_init__(self):
        _check_real("df", self.df, 2)


@dataclass(frozen=True)
class GaussianNoise:
    """Per-coordinate iid Gaussian noise; sd may be a scalar or a per-coordinate vector,
    which a process checks against its dimension."""

    sd: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        shape = ("p",) if isinstance(self.sd, (list, tuple)) or np.ndim(self.sd) else ()
        sd = _check_shape("sd", self.sd, shape, 0, include_low=True).tolist()  # a float or a list
        object.__setattr__(self, "sd", tuple(sd) if isinstance(sd, list) else sd)


@dataclass(frozen=True)
class ScaleMixtureNoise:
    """Gaussian scale mixture: components are (weight, sd) pairs, weights summing to 1."""

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = _check_shape("components", self.components, ("k", 2), 0, include_low=True)
        object.__setattr__(self, "components", tuple(map(tuple, pairs.tolist())))
        if abs(pairs[:, 0].sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")


NoiseSpec = StudentTNoise | GaussianNoise | ScaleMixtureNoise


def sample_noise(spec: NoiseSpec, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw an array of the given shape from the noise specification.

    Student-t variates are built as normal / sqrt(chi2(df)/df), which keeps
    non-integer degrees of freedom exact and the draw order reproducible.
    """
    if isinstance(spec, StudentTNoise):
        g = rng.standard_normal(shape)
        chi = rng.chisquare(spec.df, shape)
        return g / np.sqrt(chi / spec.df)
    if isinstance(spec, GaussianNoise):
        return np.asarray(spec.sd, dtype=np.float64) * rng.standard_normal(shape)
    if isinstance(spec, ScaleMixtureNoise):
        weights = np.array([w for w, _ in spec.components])
        sds = np.array([sd for _, sd in spec.components])
        idx = rng.choice(len(sds), size=shape, p=weights)
        return sds[idx] * rng.standard_normal(shape)
    raise TypeError(f"unknown noise spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# threshold partitions


@dataclass(frozen=True)
class SignPartition:
    """Two half-spaces split by the sign of the first coordinate."""

    n_regions = 2

    def region(self, z: np.ndarray) -> int:
        return 0 if z[0] < 0 else 1


@dataclass(frozen=True)
class IntervalPartition:
    """Axis-aligned slabs: region j is breakpoints[j-1] <= z[axis] < breakpoints[j];
    at least one breakpoint, so at least two regions."""

    axis: int
    breakpoints: tuple[float, ...]

    def __post_init__(self):
        _check_int("partition axis", self.axis, 0)
        bp = _check_shape("breakpoints", self.breakpoints, ("n",))
        if (np.diff(bp) <= 0).any():
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))

    @property
    def n_regions(self) -> int:
        return len(self.breakpoints) + 1

    def region(self, z: np.ndarray) -> int:
        return int(np.searchsorted(self.breakpoints, z[self.axis], side="right"))


def indicator_map(partition, z: np.ndarray) -> np.ndarray:
    """Stack 1(z in G_j) * z over regions into one length n_regions*p vector.

    Exactly one block is nonzero, so the stacked vector always has the same
    Euclidean norm as ``z``.
    """
    z = np.asarray(z, dtype=np.float64)
    p = z.shape[0]
    out = np.zeros(partition.n_regions * p)
    j = _region(partition, z)
    out[j * p : (j + 1) * p] = z
    return out


def _region(partition, z: np.ndarray) -> int:
    """The region of ``z``; anything but an integer in [0, n_regions) raises."""
    j = partition.region(z)
    if not (isinstance(j, (int, np.integer)) and 0 <= j < partition.n_regions):
        raise ValueError(f"partition returned invalid region {j}")
    return j


# ---------------------------------------------------------------------------
# data-generating processes


def _check_dimension(p: int, noise: NoiseSpec) -> None:
    """Reject a noise ``sd`` vector that does not have one entry per coordinate."""
    if isinstance(noise, GaussianNoise) and np.ndim(noise.sd) > 0 and len(noise.sd) != p:
        raise ValueError(f"noise sd has {len(noise.sd)} entries, the process has p={p}")


@dataclass(frozen=True)
class VarTDgp:
    """Linear VAR driven by iid noise: Z_t = B_1'Z_{t-1} + ... + B_d'Z_{t-d} + e_t."""

    model: VarModel
    noise: NoiseSpec = GaussianNoise(1.0)

    def __post_init__(self):
        _check_dimension(self.model.p, self.noise)
        _require_stable(self.stability_radius(), "companion spectral radius")

    def stability_radius(self) -> float:
        return _radius(companion_matrix(self.model))


@dataclass(frozen=True)
class ArchVarDgp:
    """Lag-1 VAR with state-dependent noise scale.

    Default (parametric) form: coordinate j of the noise is scaled by
    sqrt(f[j] + z'F[j]z), with positive offsets f and positive-semidefinite
    scale matrices F; stability requires radius(B)^2 + max_j radius(F_j) < 1.
    When every F_j is diagonal (the diagonal ARCH form), :func:`simulate`
    sums z_k * F_j[k, k] * z_k for each form instead of taking p x p
    products.  That is bit-identical to z @ F_j @ z when each F_j has at most
    one nonzero entry; with more the sum may round in another order, and the
    path moves by at most 1e-14 of its largest entry (tested).

    Alternatively ``sigma_fn`` may supply an arbitrary scale map z -> matrix
    (or per-coordinate vector); callbacks are accepted unchecked beyond the
    linear part's radius(B) < 1, since general scale maps admit no mechanical
    stability test.  :func:`simulate` checks the path only after its last
    step, so on a path that fails ``sigma_fn`` may be called with the
    non-finite states of the steps after the failing one.
    """

    b: np.ndarray
    f: tuple[float, ...] | None = None
    f_mats: tuple[np.ndarray, ...] | None = None
    noise: NoiseSpec = GaussianNoise(1.0)
    sigma_fn: object = None

    def __post_init__(self):
        b = _check_shape("b", self.b, ("p", "p"))
        p = b.shape[0]
        _check_dimension(p, self.noise)
        object.__setattr__(self, "b", b)
        if self.sigma_fn is not None:
            if self.f is not None or self.f_mats is not None:
                raise ValueError("give either (f, f_mats) or sigma_fn, not both")
            _require_stable(self.stability_radius(), "spectral radius")
            return
        if self.f is None or self.f_mats is None:
            raise ValueError("the parametric form requires both f and f_mats")
        f = _check_shape("f", self.f, (p,), 0)
        mats = _check_shape("f_mats", self.f_mats, (p, p, p))
        if np.linalg.eigvalsh((mats + mats.transpose(0, 2, 1)) / 2.0)[:, 0].min() < -1e-10:
            raise ValueError("scale matrices must be positive semidefinite")
        object.__setattr__(self, "f", tuple(f.tolist()))
        object.__setattr__(self, "f_mats", tuple(mats))
        _require_stable(self.stability_radius(), "radius(B)^2 + max radius(F_j) =")

    def stability_radius(self) -> float:
        r = _radius(self.b)
        if self.sigma_fn is not None:
            return r
        return r * r + max(_radius(m) for m in self.f_mats)  # r ** 2 raises on overflow


@dataclass(frozen=True)
class UnivariateArchDgp:
    """Scalar AR(p) whose noise scale is sqrt(d0 + sum_j d[j] * z_{t-j}^2).

    Stability requires radius(bb' + diag(d)) < 1, the quadratic form from
    the one-step second-moment bound E[(b'u + s(u)*eta)^2] =
    u'(bb' + diag(d))u + d0 (for order 1 this is the classical b^2 + d < 1),
    together with stability of the linear part's companion matrix.  With all
    d[j] = 0 the process is a homoskedastic AR(p) with noise scale sqrt(d0).
    """

    b: tuple[float, ...]
    d0: float
    d: tuple[float, ...]
    noise: NoiseSpec = GaussianNoise(1.0)

    def __post_init__(self):
        b = _check_shape("b", self.b, ("lags",))
        _check_real("d0", self.d0, 0)
        d = _check_shape("d", self.d, b.shape, 0, include_low=True)
        _check_dimension(1, self.noise)
        object.__setattr__(self, "b", tuple(b.tolist()))
        object.__setattr__(self, "d", tuple(d.tolist()))
        _require_stable(_radius(self.companion()), "companion spectral radius")
        _require_stable(self.stability_radius(), "radius(bb' + diag(d)) =")

    def companion(self) -> np.ndarray:
        return companion_matrix(VarModel(_Unchecked(np.reshape(self.b, (-1, 1, 1)))))

    def stability_radius(self) -> float:
        b_vec = np.asarray(self.b)
        return _radius(np.outer(b_vec, b_vec) + np.diag(self.d))


@dataclass(frozen=True)
class BekkVarDgp:
    """Lag-1 VAR with full-matrix state-dependent noise scale (C + F'zz'F)^(1/2).

    The scale is the symmetric PSD square root; C must be positive definite.
    When C = c*I it has the closed form sqrt(c)*I + uu'/(sqrt(c + u'u) + sqrt(c))
    with u = F'z, and a :func:`simulate` step applies it to the noise with a
    few length-p products.  Any other C takes an eigendecomposition at every
    step, with eigenvalues clamped at zero to guard against roundoff.
    Stability requires radius(BB' + FF') < 1.
    """

    b: np.ndarray
    c: np.ndarray
    f: np.ndarray
    noise: NoiseSpec = GaussianNoise(1.0)

    def __post_init__(self):
        b = _check_shape("b", self.b, ("p", "p"))
        c = _check_shape("c", self.c, b.shape)
        f = _check_shape("f", self.f, b.shape)
        _check_dimension(b.shape[0], self.noise)
        if np.linalg.eigvalsh((c + c.T) / 2.0)[0] <= 0:
            raise ValueError("c must be positive definite")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f", f)
        _require_stable(self.stability_radius(), "radius(BB' + FF') =")

    def stability_radius(self) -> float:
        return _radius(self.b @ self.b.T + self.f @ self.f.T)

    def _scalar_c(self) -> float | None:
        """c when C = c*I (so c > 0), else None."""
        c = float(self.c[0, 0])
        return c if np.array_equal(self.c, c * np.eye(len(self.c))) else None

    def scale_at(self, z: np.ndarray) -> np.ndarray:
        """Symmetric PSD square root of C + F'zz'F."""
        c = self._scalar_c()
        if c is None:
            return self._eigh_scale(z)
        u = self.f.T @ z
        cs = c + u @ u
        if cs == math.inf:  # no finite root is computed, as with eigh
            return np.full((len(u), len(u)), np.nan)
        root_c = math.sqrt(c)
        return root_c * np.eye(len(u)) + np.outer(u, u) / (math.sqrt(cs) + root_c)

    def _eigh_scale(self, z: np.ndarray) -> np.ndarray:
        fz = self.f.T @ z
        mat = self.c + np.outer(fz, fz)
        vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True)
class ThresholdVarDgp:
    """Regime-switching VAR: z_t = B_j' z_{t-1} + noise when z_{t-1} is in region j.

    ``partition`` must expose ``n_regions`` and ``region(z) -> int`` in
    [0, n_regions) and partition the whole state space (an index outside that
    range raises); built-ins are :class:`SignPartition` and
    :class:`IntervalPartition`.  Stability requires every regime matrix to be
    an operator-norm contraction: max_j ||B_j||_2 < 1 (the piecewise map
    z -> B_j'z then shrinks the state regardless of which region fires).
    A custom partition may be called with a non-finite state: on a path that
    fails, :func:`simulate` keeps stepping until it checks the whole path.
    """

    models: tuple[np.ndarray, ...]
    partition: object = field(default_factory=SignPartition)
    noise: NoiseSpec = GaussianNoise(1.0)

    def __post_init__(self):
        mats = _check_shape("models", self.models, ("regions", "p", "p"))
        p = mats.shape[1]
        _check_dimension(p, self.noise)
        if isinstance(self.partition, IntervalPartition):
            _check_int("partition axis", self.partition.axis, 0, p)
        if len(mats) != self.partition.n_regions:
            raise ValueError(
                f"{len(mats)} regime matrices but partition has "
                f"{self.partition.n_regions} regions"
            )
        object.__setattr__(self, "models", tuple(mats))
        _require_stable(self.stability_radius(), "max regime operator norm")

    def stability_radius(self) -> float:
        return max(float(np.linalg.norm(m, 2)) for m in self.models)


@dataclass(frozen=True)
class RcVarDgp:
    """Random-coefficient VAR: z_t = (B' + G_t) z_{t-1} + noise with G_t iid
    Gaussian-entry matrices of standard deviation ``gamma_sd``.

    Stability requires radius(kron(B', B') + E[G kron G]) < 1; for iid entries
    the second-moment matrix is gamma_sd^2 * vec(I) vec(I)'.
    """

    b: np.ndarray
    gamma_sd: float
    noise: NoiseSpec = GaussianNoise(1.0)

    def __post_init__(self):
        b = _check_shape("b", self.b, ("p", "p"))
        _check_real("gamma_sd", self.gamma_sd, 0, include_low=True)
        _check_dimension(b.shape[0], self.noise)
        object.__setattr__(self, "b", b)
        _require_stable(self.stability_radius(), "second-moment spectral radius")

    def stability_radius(self) -> float:
        p = self.b.shape[0]
        vec_eye = np.eye(p).reshape(-1)
        second_moment = self.gamma_sd**2 * np.outer(vec_eye, vec_eye)
        return _radius(np.kron(self.b.T, self.b.T) + second_moment)


DgpSpec = (
    VarTDgp | ArchVarDgp | UnivariateArchDgp | BekkVarDgp | ThresholdVarDgp | RcVarDgp
)


# ---------------------------------------------------------------------------
# generation


def gen_er_transition(
    p: int, density: float, rho_target: float, seed: int, max_attempts: int = 100
) -> np.ndarray:
    """Sparse random transition matrix rescaled to a target spectral radius.

    Each entry is independently nonzero with probability ``density`` with a
    Uniform(-1, 1) value (redrawn on an exact zero).  Draws whose spectral
    radius vanishes (e.g. an all-zero or nilpotent pattern) are regenerated
    from the next substream.
    """
    _check_int("p", p, 1)
    _check_real("density", density, 0, 1)
    _check_real("rho_target", rho_target, 0)
    _check_int("seed", seed)
    for attempt in range(max_attempts):
        rng = np.random.default_rng(derive_seed(seed, attempt))
        mask = rng.random((p, p)) < density
        vals = rng.uniform(-1.0, 1.0, (p, p))
        while True:
            zeros = mask & (vals == 0.0)
            if not zeros.any():
                break
            vals[zeros] = rng.uniform(-1.0, 1.0, int(zeros.sum()))
        b = np.where(mask, vals, 0.0)
        r = _radius(b)
        if r > 0.0:
            return b * (rho_target / r)
    raise RuntimeError(
        f"no draw with positive spectral radius in {max_attempts} attempts "
        f"(p={p}, density={density})"
    )


def _own_rows(rows: np.ndarray, n: int) -> np.ndarray | SimulationError:
    """The last ``n`` of a path's (steps, p) ``rows`` as an array of their own, or
    the error naming the first non-finite row's step: the lagged parts of a
    state are earlier rows, so that is the first step whose state was non-finite."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        return SimulationError(f"non-finite state at step {int(bad.argmax()) + 1}")
    return rows[-n:].copy()


def simulate_paths(
    specs: list[VarTDgp], n: int, burn_in: int, seeds: list[int]
) -> list[np.ndarray | SimulationError]:
    """Run R linear VAR processes of one dimension p and lag d side by side:
    path r is exactly ``simulate(specs[r], n, burn_in, seeds[r])``.

    Each path draws its noise in one block from its own ``default_rng``; the
    recursion then advances all R states with one stacked matrix-vector
    product per step.  Each path is checked for finiteness on its own: the
    entry of a path that turned non-finite is the :class:`SimulationError`
    that :func:`simulate` raises for it, and the other paths are unaffected.
    While it runs, the stack holds the noise and the states of every path,
    burn-in included: per path and step, p values of noise and d*p of state.
    A caller bounds memory by the number of paths it stacks.  Each returned
    path is an (n, p) array of its own, so the burn-in rows and the noise
    are freed when the call returns.
    """
    _check_int("n", n, 1)
    _check_int("burn_in", burn_in, 0)
    if len(specs) != len(seeds):
        raise ValueError(f"{len(specs)} processes but {len(seeds)} seeds")
    for seed in seeds:
        _check_int("seed", seed, 0)
    if not all(isinstance(spec, VarTDgp) for spec in specs):
        raise TypeError("simulate_paths takes VarTDgp processes only")
    if not specs:
        return []
    p, d = specs[0].model.p, specs[0].model.d
    if any((spec.model.p, spec.model.d) != (p, d) for spec in specs):
        raise ValueError("all processes must share one dimension p and lag d")
    steps, k = burn_in + n, p * d
    m = np.stack([companion_matrix(spec.model) for spec in specs])
    eps = np.empty((steps, len(specs), p))
    for r, (spec, seed) in enumerate(zip(specs, seeds)):
        eps[:, r] = sample_noise(spec.noise, (steps, p), np.random.default_rng(seed))
    # row t + 1 holds each path's state after step t, shaped (R, k, 1) so that
    # each path's product is one matrix-vector product, which rounds like
    # ``m @ state``; row 0 is the zero start
    states = np.zeros((steps + 1, len(specs), k, 1))
    heads = states[1:, :, :p, 0]  # each step's new values, (steps, R, p)
    # as in simulate, the check after the loop reports any overflow
    with np.errstate(over="ignore", invalid="ignore"):
        state = states[0]
        for nxt, head, noise in zip(states[1:], heads, eps):
            np.matmul(m, state, out=nxt)
            head += noise
            state = nxt
    return [_own_rows(heads[:, r], n) for r in range(len(specs))]


def simulate(spec: DgpSpec, n: int, burn_in: int, seed: int) -> np.ndarray:
    """Run a process for burn_in + n steps from a zero state and keep the last n.

    Returns an (n, p) array of its own, one row per time point: the burn-in
    rows and the noise are freed when the call returns.  The path's primary
    noise is drawn in a single block up front from ``default_rng(seed)``;
    the random-coefficient variant then draws its coefficient perturbations
    from the same stream, also in one block.  Each step writes its new state
    (the univariate ARCH's whole companion state) into the next row of one
    state array, and a diagonal ARCH-VAR takes the diagonal form (see
    :class:`ArchVarDgp`).  The whole path is checked for finiteness once,
    after the last step; a non-finite path raises :class:`SimulationError`
    naming the first non-finite step, and callers may retry with the next
    substream.  A :class:`VarTDgp` path is the one-path case of
    :func:`simulate_paths`.
    """
    if isinstance(spec, VarTDgp):
        (path,) = simulate_paths([spec], n, burn_in, [seed])
    else:
        path = _simulate_one(spec, n, burn_in, seed)
    if isinstance(path, SimulationError):
        raise path
    return path


def _simulate_one(spec: DgpSpec, n: int, burn_in: int, seed: int) -> np.ndarray | SimulationError:
    """:func:`simulate`'s path, or its error, for a process other than :class:`VarTDgp`."""
    _check_int("n", n, 1)
    _check_int("burn_in", burn_in, 0)
    _check_int("seed", seed, 0)
    steps = burn_in + n
    rng = np.random.default_rng(seed)

    if isinstance(spec, ArchVarDgp):
        p = spec.b.shape[0]
        bt = np.ascontiguousarray(spec.b.T)
        eta = sample_noise(spec.noise, (steps, p), rng)
        if spec.sigma_fn is not None:

            def step(t, z, row):
                scale = np.asarray(spec.sigma_fn(z), dtype=np.float64)
                shock = scale @ eta[t] if scale.ndim == 2 else scale * eta[t]
                np.matmul(bt, z, out=row)
                row += shock

        else:
            f_arr = np.asarray(spec.f)
            f_stack = np.stack(spec.f_mats)
            f_diag = np.diagonal(f_stack, axis1=1, axis2=2).copy()
            diagonal = np.array_equal(f_stack, f_diag[:, :, None] * np.eye(p))

            def step(t, z, row):
                # all p forms z'F_j z at once: for diagonal F_j the sums of
                # z_k * F_j[k, k] * z_k, else one row-by-column product per j,
                # which rounds exactly like z @ F_j @ z
                if diagonal:
                    quad = (z * f_diag) @ z
                else:
                    quad = np.matmul((z @ f_stack)[:, None, :], z[:, None])[:, 0, 0]
                sig = np.sqrt(f_arr + quad)
                np.matmul(bt, z, out=row)
                row += sig * eta[t]

    elif isinstance(spec, UnivariateArchDgp):
        p = 1
        m = spec.companion()
        eta = sample_noise(spec.noise, (steps, 1), rng)
        d_vec = np.asarray(spec.d)

        def step(t, z, row):
            sig = np.sqrt(spec.d0 + d_vec @ (z * z))
            np.matmul(m, z, out=row)
            row[0] += sig * eta[t, 0]

    elif isinstance(spec, BekkVarDgp):
        p = spec.b.shape[0]
        bt = np.ascontiguousarray(spec.b.T)
        eta = sample_noise(spec.noise, (steps, p), rng)
        c = spec._scalar_c()
        if c is None:

            def step(t, z, row):
                try:
                    shock = spec._eigh_scale(z) @ eta[t]
                except np.linalg.LinAlgError:  # eigh does not converge on a non-finite matrix
                    shock = np.nan
                np.matmul(bt, z, out=row)
                row += shock

        else:
            # one product gives both B'z and u = F'z
            bft = np.concatenate([bt, spec.f.T])
            root_c = math.sqrt(c)
            root_c_eta = root_c * eta
            w = np.empty(2 * p)
            bz, u = w[:p], w[p:]

            def step(t, z, row):
                # B'z plus the closed-form scale of scale_at times eta[t]
                np.matmul(bft, z, out=w)
                cs = c + u @ u
                np.add(bz, root_c_eta[t], out=row)
                if cs == math.inf:  # an overflowing scale fails the path, as with eigh
                    row.fill(np.nan)
                else:
                    row += ((u @ eta[t]) / (math.sqrt(cs) + root_c)) * u

    elif isinstance(spec, ThresholdVarDgp):
        p = spec.models[0].shape[0]
        bts = [np.ascontiguousarray(m.T) for m in spec.models]
        eta = sample_noise(spec.noise, (steps, p), rng)

        def step(t, z, row):
            np.matmul(bts[_region(spec.partition, z)], z, out=row)
            row += eta[t]

    elif isinstance(spec, RcVarDgp):
        p = spec.b.shape[0]
        eta = sample_noise(spec.noise, (steps, p), rng)
        gammas = rng.normal(0.0, spec.gamma_sd, (steps, p, p))
        gammas += spec.b.T  # each step's coefficient matrix B' + G_t

        def step(t, z, row):
            np.matmul(gammas[t], z, out=row)
            row += eta[t]

    else:
        raise TypeError(f"unknown process spec {type(spec).__name__}")

    states = np.zeros((steps + 1, len(spec.b) if isinstance(spec, UnivariateArchDgp) else p))
    # Any overflow or invalid value leaves a non-finite state, which the
    # check after the loop reports with its step; without errstate a failed
    # path would warn again on every later step.
    with np.errstate(over="ignore", invalid="ignore"):
        z = states[0]
        for t, row in enumerate(states[1:]):
            step(t, z, row)
            z = row
    return _own_rows(states[1:, :p], n)


# ---------------------------------------------------------------------------
# series serialization


def write_series_csv(data: np.ndarray, path) -> None:
    """Write an (n, p) series as CSV with header ``t,z1,...,zp``."""
    data = _check_shape("data", data, ("n", "p"))
    p = data.shape[1]
    write_table(path, ["t", *(f"z{j + 1}" for j in range(p))], (int,) + (float,) * p,
                ((t, *row) for t, row in enumerate(data.tolist())))


def read_series_csv(path) -> np.ndarray:
    """Read a series written by :func:`write_series_csv`.

    Rows are used in file order; the ``t`` column is a free label and is not
    checked.  A ragged row or a non-numeric cell raises ``ValueError`` naming
    its line, and for a cell its column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t":
            raise ValueError("not a series CSV: first column must be t")
        rows = read_table(fh, header[1:], (float,) * (len(header) - 1), skip=1)
    if not rows:
        raise ValueError("series CSV has no data rows")
    return np.asarray(rows, dtype=np.float64)
