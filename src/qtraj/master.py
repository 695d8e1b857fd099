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
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qcore import SIGMA_MINUS, SIGMA_PLUS, FieldErrors, dissipator, embed, number, validate_density_matrix


CHANNEL_LABELS = ("minus", "plus")
_GRID_TOL = 1e-9  # how far from a stored time ``TimeSeries.at`` still finds it

# A step's click probabilities sum to at most n * gamma_max * dt for every single-qubit
# jump set, so up to 10 qubits validate()'s gamma_max * dt <= 0.01 keeps the sum within
# the engine's MAX_STEP_PROB = 0.1; beyond that a validated run could stop mid-trajectory.
MAX_QUBITS = 10


def _as_rates(value, n_qubits, name: str) -> tuple[float, ...]:
    """One finite rate >= 0 per qubit; a scalar applies to every qubit.

    ``n_qubits`` is None when it fails its own check; the count is then not
    checked.
    """
    per_qubit = isinstance(value, (list, tuple)) or np.ndim(value) > 0
    rates = tuple(float(number(name, v, low=0)) for v in (value if per_qubit else [value]))
    if not per_qubit:
        return rates if n_qubits is None else rates * n_qubits
    if n_qubits is not None and len(rates) != n_qubits:
        raise ValueError(f"{name}: expected {n_qubits} rates, got {len(rates)}")
    return rates


@dataclass(frozen=True, init=False)
class LindbladModel:
    """Per-qubit decay/pump rates plus detection efficiency."""

    n_qubits: int
    gamma_minus: tuple[float, ...]
    gamma_plus: tuple[float, ...]
    eta: float = 1.0

    def __init__(self, n_qubits, gamma_minus, gamma_plus, eta=1.0):
        """Raise one FieldErrors that lists every bad argument, each once."""
        errors = FieldErrors()
        count = errors.check(number, "n_qubits", n_qubits, True, 1, MAX_QUBITS)
        if isinstance(n_qubits, numbers.Integral) and n_qubits < 1:
            count = n_qubits  # a per-qubit list is still counted against it
        rates = {
            name: errors.check(_as_rates, value, count, name)
            for name, value in (("gamma_minus", gamma_minus), ("gamma_plus", gamma_plus))
        }
        errors.check(number, "eta", eta, low=0, high=1)
        errors.raise_any()
        object.__setattr__(self, "n_qubits", int(n_qubits))
        object.__setattr__(self, "gamma_minus", rates["gamma_minus"])
        object.__setattr__(self, "gamma_plus", rates["gamma_plus"])
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
def channel_operators(n_qubits: int) -> np.ndarray:
    """The embedded channel operators c as one read-only (2n, 2**n, 2**n) stack.

    Channel 2a is sigma_minus on qubit a and channel 2a+1 is sigma_plus
    (qubit-major, labels ``CHANNEL_LABELS``), in the order of
    ``LindbladModel.rates``.
    """
    ops = np.stack(
        [embed(op, alpha, n_qubits) for alpha in range(n_qubits) for op in (SIGMA_MINUS, SIGMA_PLUS)]
    )
    ops.flags.writeable = False
    return ops


@dataclass
class TimeSeries:
    """Sampled values on a strictly increasing time grid."""

    times: np.ndarray
    values: list = field(repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if not np.all(np.diff(self.times) > 0):  # NaN fails too
            raise ValueError("times must be strictly increasing")

    def at(self, t: float):
        """Value at grid time t (must lie on the grid within ``_GRID_TOL``)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[idx] - t) <= _GRID_TOL:  # NaN fails too
            raise KeyError(f"t={t} is not on the time grid")
        return self.values[idx]


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Right-hand side sum_i gamma_i D[sigma_i] rho. Hermitian and traceless."""
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {rho.shape} does not match model dim {model.dim}")
    out = np.zeros_like(rho, dtype=complex)
    for rate, c in zip(model.rates, channel_operators(model.n_qubits)):
        if rate != 0.0:
            out += rate * dissipator(c, rho)
    return out


def check_initial_state(rho0, dim: int, context: str = "rho0") -> np.ndarray:
    """The one initial-state rule, Hermiticity to 1e-12: ValueError on shape, else InvariantViolation."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"{context} shape {rho0.shape} does not match model dim {dim}")
    validate_density_matrix(rho0, herm_tol=1e-12, context=context)
    return rho0


def integrate_master(model: LindbladModel, rho0: np.ndarray, times) -> TimeSeries:
    """Exact solution of the master equation at the requested times.

    The generator is a sum of commuting single-qubit terms, so the propagator
    is a tensor product of generalized amplitude-damping channels: on qubit a,
    with G = gm + gp, the excited population relaxes as
    p(t) = e^{-G t} p(0) + (1 - e^{-G t}) gp / G and the coherences decay as
    e^{-G t / 2}. The channels are applied one qubit at a time, to all times
    at once. ``times`` must be finite, >= 0 (the closed forms' rule, naming
    the first bad time) and strictly increasing (``TimeSeries`` enforces the
    order); every returned state is checked for trace, Hermiticity and
    positivity.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-d grid, got shape {times.shape}")
    _closed_form_times(times)
    rho0 = check_initial_state(rho0, model.dim)

    n = model.n_qubits
    nt = times.size
    rho = np.tile(rho0.reshape((1,) + (2,) * (2 * n)), (nt,) + (1,) * (2 * n))
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


def _closed_form_times(t) -> np.ndarray:
    """The closed forms' and the master's times as a float array, each finite and >= 0 (NaN fails)."""
    t = np.asarray(t, dtype=float)
    ok = np.isfinite(t) & (t >= 0)
    if not ok.all():
        raise ValueError(f"times must be finite and >= 0, got {t[~ok].flat[0]}")
    return t


def analytic_concurrence(kind: str, gamma: float, eta: float | None, t):
    """Closed-form Bell-pair concurrence curves (clamped at 0).

    kind: "zero_T", "infinite_T" or "monitored" (the latter needs eta).
    Accepts scalar or array t, each finite and >= 0. gamma >= 0 and eta in
    [0, 1] follow ``qcore.number``: NaN or a string is a ValueError naming
    its field.
    """
    number("gamma", gamma, low=0)
    t = _closed_form_times(t)
    if kind == "zero_T":
        c = np.exp(-gamma * t)
    elif kind == "infinite_T":
        c = np.exp(-2.0 * gamma * t) + 0.5 * np.exp(-4.0 * gamma * t) - 0.5
    elif kind == "monitored":
        number("eta", eta, low=0, high=1)
        return analytic_concurrence("infinite_T", gamma * (1.0 - eta), None, t)
    else:
        raise ValueError(f"unknown concurrence curve kind: {kind!r}")
    c = np.maximum(c, 0.0)
    return float(c) if c.ndim == 0 else c


def analytic_bell_state(kind: str, gamma: float, t) -> np.ndarray:
    """Closed-form two-qubit state rho(t) for a Bell input under the model.

    X-state forms obtained by solving the population/coherence equations by
    hand (each qubit relaxes independently; the |01><10| coherence decays at
    the sum of the single-qubit coherence rates). Cross-checked against
    ``integrate_master`` in the test suite. An array of times gives a stack.
    gamma and t are judged as in ``analytic_concurrence``.
    """
    number("gamma", gamma, low=0)
    t = _closed_form_times(t)
    rho = np.zeros(t.shape + (4, 4), dtype=complex)
    if kind == "zero_T":
        e = np.exp(-gamma * t)
        rho[..., 0, 0] = 1.0 - e
        rho[..., 1, 1] = rho[..., 2, 2] = rho[..., 1, 2] = rho[..., 2, 1] = 0.5 * e
    elif kind == "infinite_T":
        e2 = np.exp(-2.0 * gamma * t)
        e4 = np.exp(-4.0 * gamma * t)
        rho[..., 0, 0] = rho[..., 3, 3] = 0.25 * (1.0 - e4)
        rho[..., 1, 1] = rho[..., 2, 2] = 0.25 * (1.0 + e4)
        rho[..., 1, 2] = rho[..., 2, 1] = 0.5 * e2
    else:
        raise ValueError(f"unknown state kind: {kind!r}")
    return rho


def disentanglement_time(gamma: float, eta: float = 0.0) -> float:
    """Root of the monitored closed form: ln(1 + sqrt(2)) / (2 gamma (1 - eta))."""
    number("gamma", gamma, above=0)
    number("eta", eta, low=0, high=1)
    if eta == 1.0:
        raise ValueError("no finite disentanglement time at eta=1: protection is perfect")
    return math.log(1.0 + math.sqrt(2.0)) / (2.0 * gamma * (1.0 - eta))


def oracle_kind(model: LindbladModel) -> str | None:
    """The closed form (if any) for a Bell input: two qubits, one gamma_minus > 0, one gamma_plus."""
    g, gp = model.gamma_minus[0], model.gamma_plus[0]
    if model.n_qubits != 2 or set(model.gamma_minus) != {g} or set(model.gamma_plus) != {gp} or g <= 0:
        return None
    if gp == 0.0:
        return "zero_T"
    if gp == g:
        return "infinite_T"
    return None

