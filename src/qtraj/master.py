"""Exact unconditioned master-equation solution and closed-form concurrence oracles.

The model couples every qubit to a local decay channel at rate gamma_minus and
a local incoherent pump at rate gamma_plus:

    drho/dt = sum_alpha  gm_a D[sigma_-,a] rho  +  gp_a D[sigma_+,a] rho

There is no Hamiltonian term. Balanced rates (gm = gp) realize the
infinite-temperature limit at finite total rate. Closed forms for the Bell-pair
concurrence under this dynamics:

    zero temperature   c(t) = exp(-g t)
    infinite temperature  c(t) = exp(-2 g t) + exp(-4 g t)/2 - 1/2   (clamped at 0)
    monitored, efficiency eta: the infinite-temperature form at rate g(1-eta)

all assuming equal rates on both qubits.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qcore import SIGMA_MINUS, SIGMA_PLUS, dissipator, embed, validate_density_matrix


CHANNEL_LABELS = ("minus", "plus")


def _as_rates(value, n_qubits: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        rates = (float(value),) * n_qubits
    else:
        rates = tuple(float(v) for v in value)
    if len(rates) != n_qubits:
        raise ValueError(f"{name}: expected {n_qubits} rates, got {len(rates)}")
    if any(r < 0 for r in rates):
        raise ValueError(f"{name}: rates must be >= 0, got {rates}")
    return rates


@dataclass(frozen=True, init=False)
class LindbladModel:
    """Per-qubit decay/pump rates plus detection efficiency."""

    n_qubits: int
    gamma_minus: tuple[float, ...]
    gamma_plus: tuple[float, ...]
    eta: float = 1.0

    def __init__(self, n_qubits, gamma_minus, gamma_plus, eta=1.0):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        object.__setattr__(self, "n_qubits", int(n_qubits))
        object.__setattr__(self, "gamma_minus", _as_rates(gamma_minus, n_qubits, "gamma_minus"))
        object.__setattr__(self, "gamma_plus", _as_rates(gamma_plus, n_qubits, "gamma_plus"))
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        object.__setattr__(self, "eta", float(eta))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def max_rate(self) -> float:
        return max(self.gamma_minus + self.gamma_plus)

    @property
    def rates(self) -> np.ndarray:
        """Per-channel rates (gm_0, gp_0, gm_1, gp_1, ...), the order of ``channel_operators``."""
        return np.array([self.gamma_minus, self.gamma_plus]).T.ravel()

    @property
    def balanced(self) -> bool:
        return self.gamma_minus == self.gamma_plus

    def scaled(self, factor: float) -> "LindbladModel":
        """Same model with every rate multiplied by ``factor``."""
        return LindbladModel(
            self.n_qubits,
            tuple(factor * g for g in self.gamma_minus),
            tuple(factor * g for g in self.gamma_plus),
            self.eta,
        )


@lru_cache(maxsize=32)
def channel_operators(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The embedded channel operators c and their c†c, as two read-only stacks.

    Channel 2a is sigma_minus on qubit a and channel 2a+1 is sigma_plus
    (qubit-major, labels ``CHANNEL_LABELS``), in the order of
    ``LindbladModel.rates``. Each stack has shape (2n, 2**n, 2**n).
    """
    ops = np.stack(
        [embed(op, alpha, n_qubits) for alpha in range(n_qubits) for op in (SIGMA_MINUS, SIGMA_PLUS)]
    )
    cc = np.stack([c.conj().T @ c for c in ops])
    ops.flags.writeable = False
    cc.flags.writeable = False
    return ops, cc


@dataclass
class TimeSeries:
    """Sampled values on a strictly increasing time grid."""

    times: np.ndarray
    values: list = field(repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.values)

    def at(self, t: float, tol: float = 1e-9):
        """Value at grid time t (must lie on the grid within tol)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > tol:
            raise KeyError(f"t={t} is not on the time grid")
        return self.values[idx]


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Right-hand side sum_i gamma_i D[sigma_i] rho. Hermitian and traceless."""
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {rho.shape} does not match model dim {model.dim}")
    out = np.zeros_like(rho, dtype=complex)
    for rate, c in zip(model.rates, channel_operators(model.n_qubits)[0]):
        if rate != 0.0:
            out += rate * dissipator(c, rho)
    return out


def integrate_master(model: LindbladModel, rho0: np.ndarray, times) -> TimeSeries:
    """Exact solution of the master equation at the requested times.

    The generator is a sum of commuting single-qubit terms, so the propagator
    is a tensor product of generalized amplitude-damping channels: on qubit a,
    with G = gm + gp, the excited population relaxes as
    p(t) = e^{-G t} p(0) + (1 - e^{-G t}) gp / G and the coherences decay as
    e^{-G t / 2}. The channels are applied one qubit at a time, to all times
    at once. ``times`` must be >= 0 and strictly increasing (``TimeSeries``
    enforces the order); every returned state is checked for trace,
    Hermiticity and positivity.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-d grid, got shape {times.shape}")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError(f"times must be finite and >= 0, got min {times.min()}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (model.dim, model.dim):
        raise ValueError(f"rho0 shape {rho0.shape} does not match model dim {model.dim}")
    validate_density_matrix(rho0, herm_tol=1e-12, context="rho0")

    n = model.n_qubits
    nt = times.size
    rho = np.empty((nt,) + (2,) * (2 * n), dtype=complex)
    rho[...] = rho0.reshape((2,) * (2 * n))
    bcast = (nt,) + (1,) * (2 * n - 2)
    for alpha in range(n):
        gm, gp = model.gamma_minus[alpha], model.gamma_plus[alpha]
        total = gm + gp
        if total == 0.0:
            continue
        decay = np.exp(-total * times).reshape(bcast)
        fill = (-np.expm1(-total * times) * (gp / total)).reshape(bcast)
        # (row, column) index pair of this qubit moved last; writes go to rho
        r = np.moveaxis(rho, (1 + alpha, 1 + n + alpha), (-2, -1))
        pop = r[..., 0, 0] + r[..., 1, 1]
        excited = decay * r[..., 1, 1] + fill * pop
        r[..., 0, 0] = pop - excited
        r[..., 1, 1] = excited
        r[..., 0, 1] *= np.sqrt(decay)
        r[..., 1, 0] *= np.sqrt(decay)
    states = list(rho.reshape(nt, model.dim, model.dim))
    for t, state in zip(times, states):
        validate_density_matrix(state, context=f"master state at t={t:g}")
    return TimeSeries(times, states)


def analytic_concurrence(kind: str, gamma: float, eta: float | None, t):
    """Closed-form Bell-pair concurrence curves (clamped at 0).

    kind: "zero_T", "infinite_T" or "monitored" (the latter needs eta).
    Accepts scalar or array t.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if kind == "zero_T":
        c = np.exp(-gamma * t)
    elif kind == "infinite_T":
        c = np.exp(-2.0 * gamma * t) + 0.5 * np.exp(-4.0 * gamma * t) - 0.5
    elif kind == "monitored":
        if eta is None or not 0.0 <= eta <= 1.0:
            raise ValueError(f"monitored curve needs eta in [0, 1], got {eta}")
        return analytic_concurrence("infinite_T", gamma * (1.0 - eta), None, t)
    else:
        raise ValueError(f"unknown concurrence curve kind: {kind!r}")
    c = np.maximum(c, 0.0)
    return float(c) if c.ndim == 0 else c


def analytic_bell_state(kind: str, gamma: float, t: float, eta: float | None = None) -> np.ndarray:
    """Closed-form two-qubit state rho(t) for a Bell input under the model.

    X-state forms obtained by solving the population/coherence equations by
    hand (each qubit relaxes independently; the |01><10| coherence decays at
    the sum of the single-qubit coherence rates). Cross-checked against
    ``integrate_master`` in the test suite.
    """
    if kind == "monitored":
        if eta is None or not 0.0 <= eta <= 1.0:
            raise ValueError(f"monitored state needs eta in [0, 1], got {eta}")
        return analytic_bell_state("infinite_T", gamma * (1.0 - eta), t)
    rho = np.zeros((4, 4), dtype=complex)
    if kind == "zero_T":
        e = math.exp(-gamma * t)
        rho[0, 0] = 1.0 - e
        rho[1, 1] = rho[2, 2] = 0.5 * e
        rho[1, 2] = rho[2, 1] = 0.5 * e
    elif kind == "infinite_T":
        e2 = math.exp(-2.0 * gamma * t)
        e4 = math.exp(-4.0 * gamma * t)
        rho[0, 0] = rho[3, 3] = 0.25 * (1.0 - e4)
        rho[1, 1] = rho[2, 2] = 0.25 * (1.0 + e4)
        rho[1, 2] = rho[2, 1] = 0.5 * e2
    else:
        raise ValueError(f"unknown state kind: {kind!r}")
    return rho


def disentanglement_time(gamma: float, eta: float = 0.0) -> float:
    """Root of the monitored closed form: ln(1 + sqrt(2)) / (2 gamma (1 - eta))."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if eta == 1.0:
        raise ValueError("no finite disentanglement time at eta=1: protection is perfect")
    return math.log(1.0 + math.sqrt(2.0)) / (2.0 * gamma * (1.0 - eta))


def _require_symmetric_two_qubit(model: LindbladModel) -> float:
    if model.n_qubits != 2:
        raise ValueError("closed-form oracles are two-qubit only")
    if len(set(model.gamma_minus)) != 1 or len(set(model.gamma_plus)) != 1:
        raise ValueError("closed-form oracles require equal rates on both qubits")
    return model.gamma_minus[0]


def oracle_kind(model: LindbladModel) -> str | None:
    """Which closed form (if any) matches the model for a Bell input."""
    try:
        g = _require_symmetric_two_qubit(model)
    except ValueError:
        return None
    if model.gamma_plus[0] == 0.0 and g > 0:
        return "zero_T"
    if model.balanced and g > 0:
        return "infinite_T"
    return None

