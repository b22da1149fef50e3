"""Channel statistics and sampling for selective-fading MIMO links.

Covers the slot-covariance constructions (flat, fast, block fading, cyclic
multipath, time-frequency selective), the two-level circulant surrogate with
its analytically known eigenstructure, and correlated channel sampling from
the covariance's nonzero eigenpairs.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from ._util import (
    FieldError,
    assert_hermitian,
    complex_normal,
    complex_pairs,
    json_complex,
    json_field,
    json_floats,
    json_keys,
    rank_tolerance,
    unitary_fft,
)


@dataclass(frozen=True)
class ChannelDims:
    """Antenna counts and block length of a MIMO transmission."""

    num_tx: int
    num_rx: int
    block_len: int

    def __post_init__(self):
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValueError("antenna counts must be positive")
        if self.block_len < 1:
            raise ValueError("block length must be positive")

    @property
    def min_ant(self):
        return min(self.num_tx, self.num_rx)

    @property
    def max_ant(self):
        return max(self.num_tx, self.num_rx)


@dataclass(frozen=True)
class ScatteringSpec:
    """Brick-wall delay-Doppler spectrum with its time-frequency signalling grid.

    The spectrum is constant on [0, tau0] x [0, nu0] and zero elsewhere; the
    grid spacings must satisfy grid_t <= 1/nu0 and grid_f <= 1/tau0 so that
    one spectral period covers the support.
    """

    tau0: float
    nu0: float
    grid_t: float
    grid_f: float
    num_time: int
    num_freq: int

    def __post_init__(self):
        if not np.all(np.isfinite((self.tau0, self.nu0, self.grid_t, self.grid_f))):
            raise ValueError("spreads and grid spacings must be finite")
        if self.tau0 <= 0 or self.nu0 <= 0:
            raise ValueError("delay and Doppler spreads must be positive")
        if self.tau0 * self.nu0 >= 1.0:
            raise ValueError("spread product tau0*nu0 must be below 1 (underspread)")
        if self.grid_t > 1.0 / self.nu0 + 1e-12 or self.grid_f > 1.0 / self.tau0 + 1e-12:
            raise ValueError("grid spacing exceeds the inverse channel spread")
        if self.num_time < 1 or self.num_freq < 1:
            raise ValueError("slot counts must be positive")

    @classmethod
    def from_normalized(cls, doppler_time, delay_freq, num_time, num_freq):
        """Build a spec from the dimensionless products nu0*T and tau0*F."""
        return cls(tau0=float(delay_freq), nu0=float(doppler_time), grid_t=1.0,
                   grid_f=1.0, num_time=num_time, num_freq=num_freq)

    @property
    def block_len(self):
        return self.num_time * self.num_freq

    @property
    def doppler_slots(self):
        """Number of occupied Doppler bins of the circulant surrogate."""
        return int(np.floor(self.nu0 * self.grid_t * self.num_time + 1e-12))

    @property
    def delay_slots(self):
        """Number of occupied delay bins of the circulant surrogate."""
        return int(np.floor(self.tau0 * self.grid_f * self.num_freq + 1e-12))

    def occupied_slots(self):
        """``(doppler_slots, delay_slots)``; raises unless both are at least 1."""
        v, t = self.doppler_slots, self.delay_slots
        if v < 1 or t < 1:
            raise ValueError("channel spread too small for the grid: "
                             f"doppler_slots={v}, delay_slots={t}")
        return v, t

    def correlation(self, dt, df):
        """Closed-form slot correlation of the brick-wall spectrum.

        Separable product of two sinc factors with linear phase, at unit
        per-coefficient power; validated against direct 2-D quadrature of the
        spectrum in the test suite.
        """
        return (np.exp(1j * np.pi * self.nu0 * dt) * np.sinc(self.nu0 * dt)
                * np.exp(-1j * np.pi * self.tau0 * df) * np.sinc(self.tau0 * df))


class FadingModel:
    """Fading across the slots of a block: a config ``kind``, the raw slot
    covariance ``entries(n)`` (before unit-power normalisation), and the
    reader ``from_doc(doc)`` of its config section, whose errors name the
    field as ``model.<key>``, an unknown key too. ``MODELS`` maps each kind
    to its class. The reader here serves models whose parameters are all
    counts."""

    kind = None

    @classmethod
    def from_doc(cls, doc):
        names = [f.name for f in fields(cls)]
        json_keys(doc, ("kind", *names), "model")
        return cls(**{name: _count(doc, name) for name in names})


def _count(doc, key):
    """``doc[key]`` of a model section, read as a positive integer."""
    value = json_field(doc, key, "model", int)
    if value < 1:
        raise FieldError(f"model.{key}: must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Flat(FadingModel):
    """All slots see the same draw; covariance is the all-ones matrix."""

    kind = "flat"

    def entries(self, n):
        return np.ones((n, n), dtype=complex)


@dataclass(frozen=True)
class Fast(FadingModel):
    """Independent draw per slot; covariance is the identity."""

    kind = "fast"

    def entries(self, n):
        return np.eye(n, dtype=complex)


@dataclass(frozen=True)
class BlockFading(FadingModel):
    kind = "block"
    num_blocks: int
    block_len: int

    def __post_init__(self):
        if self.num_blocks < 1 or self.block_len < 1:
            raise ValueError("block counts must be positive")

    def entries(self, n):
        if self.num_blocks * self.block_len != n:
            raise ValueError("num_blocks * block_len must equal the block length")
        return np.kron(np.eye(self.num_blocks),
                       np.ones((self.block_len, self.block_len))).astype(complex)


@dataclass(frozen=True)
class CyclicIsi(FadingModel):
    """Cyclic multipath channel observed in the frequency domain."""

    kind = "isi"
    num_taps: int
    power_delay_profile: tuple

    def __post_init__(self):
        pdp = tuple(float(p) for p in self.power_delay_profile)
        object.__setattr__(self, "power_delay_profile", pdp)
        if len(pdp) != self.num_taps:
            raise ValueError("power-delay profile length must equal the tap count")
        if any(p < 0 for p in pdp):
            raise ValueError("tap powers must be nonnegative")
        if not any(p > 0 for p in pdp):
            raise ValueError("at least one tap power must be positive")

    def entries(self, n):
        if self.num_taps > n:
            raise ValueError("tap count exceeds the block length")
        profile = np.zeros(n)
        profile[:self.num_taps] = self.power_delay_profile
        fft = unitary_fft(n)
        return (fft * profile) @ fft.conj().T

    @classmethod
    def from_doc(cls, doc):
        json_keys(doc, ("kind", "num_taps", "power_delay_profile"), "model")
        num_taps = _count(doc, "num_taps")
        profile = json_floats(doc, "power_delay_profile", "model")
        try:  # with a valid tap count, only the profile can be at fault
            return cls(num_taps=num_taps, power_delay_profile=profile)
        except ValueError as exc:
            raise FieldError(f"model.power_delay_profile: {exc}") from exc


@dataclass(frozen=True)
class TimeFrequency(FadingModel):
    """Time-frequency selective fading of a brick-wall scattering spectrum.
    The two-level Toeplitz matrix of ``entries`` generically has full
    numerical rank at finite block length; its circulant surrogate
    (``circulant_covariance``) has rank ``doppler_slots * delay_slots``."""

    kind = "tf"
    spec: ScatteringSpec

    def entries(self, n):
        spec = self.spec
        if spec.block_len != n:
            raise ValueError("scattering grid does not match the block length")
        t_idx, f_idx = np.divmod(np.arange(n), spec.num_freq)
        dt = (t_idx[:, None] - t_idx[None, :]) * spec.grid_t
        df = (f_idx[:, None] - f_idx[None, :]) * spec.grid_f
        return spec.correlation(dt, df)

    @classmethod
    def from_doc(cls, doc):
        json_keys(doc, ("kind", "nu0_t", "tau0_f", "num_time", "num_freq"), "model")
        return cls(ScatteringSpec.from_normalized(
            json_field(doc, "nu0_t", "model", float), json_field(doc, "tau0_f", "model", float),
            json_field(doc, "num_time", "model", int), json_field(doc, "num_freq", "model", int)))


MODELS = {cls.kind: cls for cls in (Flat, Fast, BlockFading, CyclicIsi, TimeFrequency)}


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD slot covariance with its rank and nonzero eigenpairs."""

    entries: np.ndarray
    rank: int
    eigvals: np.ndarray
    eigvecs: np.ndarray

    def __post_init__(self):
        for arr in (self.entries, self.eigvals, self.eigvecs):
            arr.setflags(write=False)

    @property
    def block_len(self):
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries):
        """Validate and decompose a dense covariance matrix."""
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("covariance must be square")
        if not np.all(np.isfinite(entries)):
            raise ValueError("covariance entries must be finite")
        assert_hermitian(entries, "covariance")
        n = entries.shape[0]
        w, v = np.linalg.eigh(entries)
        tol = rank_tolerance(w, n)
        if np.min(w) < -tol - 1e-12 * max(np.max(np.abs(w)), 1.0):
            raise ValueError("covariance is not positive semidefinite")
        keep = w > tol  # tol >= 0, so no kept eigenvalue is negative
        rank = int(np.count_nonzero(keep))
        diag = np.real(np.diag(entries))
        if np.max(diag) - np.min(diag) > 1e-9 * max(np.max(diag), 1.0):
            raise ValueError("covariance diagonal is not constant across slots")
        if not np.min(diag) > 0:
            raise ValueError("covariance diagonal must be positive")
        return cls(entries=entries, rank=rank, eigvals=w[keep], eigvecs=v[:, keep])

    def to_json(self):
        """Serializable dict: {"n": ..., "entries": row-major [re, im] pairs}."""
        return {"n": int(self.block_len), "entries": complex_pairs(self.entries.reshape(-1))}

    @classmethod
    def from_json(cls, payload):
        n = json_field(payload, "n", "covariance", int)
        if n < 1:
            raise ValueError(f"covariance.n: must be at least 1, got {n}")
        flat = json_complex(payload, "entries", "covariance", 1)
        if flat.size != n * n:
            raise ValueError("entry list does not match the declared size")
        return cls.from_entries(flat.reshape(n, n))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def build_covariance(model, n):
    """Construct the slot covariance matrix for a fading model, rescaled so
    every diagonal entry is exactly 1 and the average SNR keeps its meaning
    (the raw cyclic multipath construction has diagonal sum(pdp)/n).

    Parameters
    ----------
    model : FadingModel
        Statistical model of the fading process across slots; one of the
        classes in ``MODELS``.
    n : int
        Block length (number of time-frequency slots).

    Returns
    -------
    CovarianceMatrix
    """
    if n < 1:
        raise ValueError("block length must be positive")
    if type(model) not in MODELS.values():
        raise TypeError(f"unknown covariance model: {model!r}")
    entries = model.entries(n)
    return CovarianceMatrix.from_entries(entries / np.mean(np.real(np.diag(entries))))


def circulant_covariance(spec):
    """Two-level circulant covariance with eigenvalues sampled from the
    asymptotic spectrum of the time-frequency selective channel.

    The eigenvectors are Kronecker products of DFT columns and the nonzero
    eigenvalues occupy the Doppler-delay index box {0..v-1} x {0..t-1} where
    v and t count the occupied Doppler and delay bins. For the brick-wall
    spectrum the sampled value is constant on the support, scaled to unit
    diagonal.
    """
    v, t = spec.occupied_slots()
    big_m, big_k = spec.num_time, spec.num_freq
    lam = np.zeros((big_m, big_k))
    lam[:v, :t] = spec.block_len / (v * t)
    fmat = np.kron(unitary_fft(big_m), unitary_fft(big_k))
    entries = (fmat * lam.reshape(-1)) @ fmat.conj().T
    return CovarianceMatrix.from_entries(entries)


def sample_channel_batch(cov, dims, count, rng):
    """``count`` correlated channel draws as one (count, N, M_R, M_T) array:
    ``mix_white(cov, draw_white(cov, dims, count, rng))``.

    Spatially white: every transmit-receive pair is an independent process
    across slots with covariance ``cov.entries``. A covariance of rank rho
    is driven by rho white (M_R, M_T) matrices W_k of i.i.d. unit-variance
    circularly-symmetric Gaussians, H_n = sum_k sqrt(lambda_k) v_k[n] W_k,
    so each draw takes rho * M_R * M_T complex normals from ``rng``, not
    N * M_R * M_T. Every Monte Carlo draws its channels this way but
    ``tradeoff.outage_curve`` on a rank-one covariance with min_ant <= 2,
    which samples their Wishart statistics instead.
    """
    return mix_white(cov, draw_white(cov, dims, count, rng))


def draw_white(cov, dims, count, rng):
    """The (count, rho, M_R, M_T) white matrices W_k that drive ``count``
    draws of ``sample_channel_batch``, taken from ``rng`` in the same order."""
    if cov.block_len != dims.block_len:
        raise ValueError("covariance size does not match the block length")
    return complex_normal(rng, (count, cov.rank, dims.num_rx, dims.num_tx))


def mix_white(cov, white):
    """The (count, N, M_R, M_T) channels H_n = sum_k sqrt(lambda_k) v_k[n] W_k
    of a (count, rho, M_R, M_T) white batch: one GEMM of the N x rho factor
    with the rank-first white batch, returned as a view of the slot-major
    (N, count, M_R, M_T) product, so that a reduction over the slots runs
    over the outer memory axis. The GEMM rounds differently from a per-draw
    sum (entries move by about 3e-16 of the largest entry), and its rounding
    can depend on the batch size, so mixing ``white[a:b]`` need not give rows
    a:b of the whole batch's mix bit for bit; the Monte Carlos mix on the
    fixed ``_util.batches`` boundaries of a chunk."""
    count, rank, num_rx, num_tx = white.shape
    rank_first = white.reshape(count, rank, num_rx * num_tx).swapaxes(0, 1)
    slots = (cov.eigvecs * np.sqrt(cov.eigvals)) @ rank_first.reshape(rank, -1)
    return slots.reshape(cov.block_len, count, num_rx, num_tx).swapaxes(0, 1)
