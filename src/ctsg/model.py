"""Game model container, generator validation, drift-condition checks, and value bounds.

The model is a finite (or gridded) continuous-time Markov game: per-state
action sets for both players, a payoff-rate tensor, a conservative generator
tensor, a terminal reward vector, a risk parameter theta > 0 and a horizon.
Tensors are ragged over states (action set sizes may vary): they are stored
once, stacked per action-set shape, and read per state through views.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import CertificateError, StructureError

logger = logging.getLogger(__name__)

# Relative tolerance for row-sum conservativity: floating-point row sums of
# rate tensors never vanish exactly.
CONSERVATIVITY_REL_TOL = 1e-12
# exp overflows just above this; larger exponents are refused or flagged.
_MAX_EXP_ARG = 700.0


def _count(value: Any, name: str, low: float = -math.inf) -> int:
    """value as a Python int: the one check of every count, index and level argument.

    ValueError unless value is a Python or numpy integer (not a bool) of at least low.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} is not an integer")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


def _real(value: Any, name: str, low: float = -math.inf, *, above: bool = False) -> float:
    """value as a Python float: the one check of every real argument.

    ValueError unless value is a finite Python or numpy real number (not a bool) of at
    least low, or above low when above is set. (math.isfinite overflows on a huge int.)
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))):
        raise ValueError(f"{name}={value!r} is not a finite real number")
    if value < low or (above and value == low):
        raise ValueError(f"{name} must be {'above' if above else 'at least'} {low}, got {value}")
    return float(value)


def _state_ids(state_ids: Iterable[Any], n_states: int) -> tuple[int, ...]:
    """state_ids as Python ints: the one id rule, integers, one per state, none repeated (ValueError)."""
    ids = tuple(_count(s, f"state_ids[{i}]") for i, s in enumerate(state_ids))
    if len(ids) != n_states:
        raise ValueError(f"{len(ids)} state ids for {n_states} states")
    if len(set(ids)) != n_states:
        raise ValueError(f"state id {next(s for s in ids if ids.count(s) > 1)} appears more than once")
    return ids


def _group_by_shape(shapes: Iterable[tuple[int, int]]) -> list[np.ndarray]:
    """The states of each (|A|, |B|), in order of first appearance: the one grouping rule."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for x, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(x)
    return [np.array(states) for states in by_shape.values()]


def _per_state(stacks: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """The views stack[j] of states[j], for every (states, stack) pair, as a tuple in state order."""
    rows = {x: row for states, stack in stacks for x, row in zip(states.tolist(), stack)}
    return tuple(rows[x] for x in range(len(rows)))


@dataclass(frozen=True)
class _ShapeGroup:
    """The states sharing one action-set shape, with their tensors stacked.

    payoff[k] is r[states[k]], shape (|A|, |B|); generator[k] is
    q[states[k]] with its action pairs flattened, shape (|A| |B|, n_states).
    """

    states: np.ndarray
    payoff: np.ndarray
    generator: np.ndarray


@dataclass(frozen=True)
class GameModel:
    """Two-player zero-sum game on a controlled continuous-time Markov chain.

    Attributes:
        actions_p1: per-state action labels for player 1 (the maximizer).
        actions_p2: per-state action labels for player 2 (the minimizer).
        payoff: per-state arrays r[x] of shape (|A(x)|, |B(x)|), reward rate
            to player 1 / cost rate to player 2.
        generator: per-state arrays q[x] of shape (|A(x)|, |B(x)|, n_states);
            q[x][a, b, y] is the transition rate to y, rows sum to zero.
        terminal: terminal reward g(x), shape (n_states,).
        theta: risk-sensitivity parameter, strictly positive (risk aversion).
            Risk seeking is modelled by negating the payoff, not by theta < 0.
        horizon: game length T > 0.
        coords: optional real coordinate per state (gridded continuous models).
        state_ids: external state identifiers, defaults to 0..n_states-1.

    Construction holds theta and horizon as Python floats (_real, ValueError)
    and checks the dimensions and the ids (_state_ids, StructureError). The
    action sets become tuples of tuples and state_ids a tuple of ints, so no
    in-place edit can change them; payoff and generator become tuples of
    views into one stack per action-set shape, so an in-place edit of r[x] or
    q[x] is seen everywhere. Fields are frozen: dataclasses.replace re-checks
    and restacks.
    """

    actions_p1: Sequence[Sequence[int]]
    actions_p2: Sequence[Sequence[int]]
    payoff: Sequence[np.ndarray]
    generator: Sequence[np.ndarray]
    terminal: np.ndarray
    theta: float
    horizon: float
    coords: np.ndarray | None = None
    state_ids: Sequence[int] = ()
    _shape_groups: list[_ShapeGroup] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        theta, horizon = (_real(getattr(self, name), name, 0, above=True) for name in ("theta", "horizon"))
        actions_p1 = tuple(map(tuple, self.actions_p1))
        actions_p2 = tuple(map(tuple, self.actions_p2))
        terminal = np.asarray(self.terminal, dtype=float)
        payoff = [np.asarray(m, dtype=float) for m in self.payoff]
        generator = [np.asarray(q, dtype=float) for q in self.generator]
        n = len(payoff)
        if n == 0:
            raise StructureError("a model needs at least one state")
        if not (len(actions_p1) == len(actions_p2) == len(generator) == n):
            raise StructureError("per-state lists have inconsistent lengths")
        if terminal.shape != (n,):
            raise StructureError(f"terminal must have shape ({n},), got {terminal.shape}")
        for x in range(n):
            na, nb = len(actions_p1[x]), len(actions_p2[x])
            if na == 0 or nb == 0:
                raise StructureError(f"state {x} has an empty action set")
            if payoff[x].shape != (na, nb):
                raise StructureError(f"payoff[{x}] must have shape ({na}, {nb}), got {payoff[x].shape}")
            if generator[x].shape != (na, nb, n):
                raise StructureError(
                    f"generator[{x}] must have shape ({na}, {nb}, {n}), got {generator[x].shape}"
                )
        groups = []
        for states in _group_by_shape(m.shape for m in payoff):
            na, nb = payoff[states[0]].shape
            groups.append(_ShapeGroup(
                states=states,
                payoff=np.stack([payoff[x] for x in states]),
                # C order whatever the inputs' strides, as a loaded model has it: np.stack
                # alone follows a broadcast input's layout, and products round by layout.
                generator=np.stack(
                    [generator[x] for x in states], out=np.empty((len(states), na, nb, n))
                ).reshape(len(states), na * nb, n),
            ))
        try:
            state_ids = _state_ids(tuple(self.state_ids) or range(n), n)
        except ValueError as exc:
            raise StructureError(str(exc)) from None
        coords = None if self.coords is None else np.asarray(self.coords, dtype=float)
        if coords is not None and coords.shape != (n,):
            raise StructureError(f"coords must have shape ({n},), got {coords.shape}")
        self.__dict__.update(
            actions_p1=actions_p1, actions_p2=actions_p2,
            payoff=_per_state((g.states, g.payoff) for g in groups),
            generator=_per_state((g.states, g.generator.reshape(*g.payoff.shape, n)) for g in groups),
            terminal=terminal, theta=theta, horizon=horizon,
            coords=coords, state_ids=state_ids, _shape_groups=groups,
        )

    def __reduce__(self) -> tuple:
        """Pickles and deep copies rebuild through the constructor, so their views share stacks."""
        return (GameModel, tuple(getattr(self, f.name) for f in fields(self) if f.init))

    @property
    def n_states(self) -> int:
        return len(self.payoff)

    @property
    def q_star(self) -> np.ndarray:
        """Per-state exit-rate bound q*(x) = max over (a, b) of -q(x|x,a,b); a NaN propagates."""
        out = np.empty(self.n_states)
        for group in self._shape_groups:
            diagonal = group.generator[np.arange(len(group.states)), :, group.states]
            out[group.states] = np.max(-diagonal, axis=1)
        return out

    @property
    def norm_q(self) -> float:
        """Sup of q*(x) over states; NaN if any rate is NaN."""
        return float(np.max(self.q_star))

    @property
    def norm_r(self) -> float:
        """Sup of |r(x,a,b)|; NaN if any payoff is NaN."""
        return float(np.max([np.max(np.abs(group.payoff)) for group in self._shape_groups]))


@dataclass
class Violation:
    """One violated generator invariant with its witness cell."""

    kind: str  # "offdiag_negative" | "not_conservative" | "not_stable" | "not_finite"
    x: int
    a: int | None = None
    b: int | None = None
    y: int | None = None
    residual: float = 0.0


@dataclass
class ValidationReport:
    """Result of structural generator validation."""

    violations: list[Violation]
    q_star: np.ndarray  # per-state exit-rate bound
    max_abs_rate: float
    tolerance: float

    @property
    def is_valid(self) -> bool:
        return not self.violations


# The certificate's drift constants and its checks: each check <name> fills the
# flag <name>_ok and the residual key <name> (see check_assumptions).
CERTIFICATE_CONSTANTS = ("rho0", "l0", "m0", "rho1", "b1", "m1")
CERTIFICATE_CHECKS = ("drift0", "rate_bound", "payoff_bound", "drift1", "squeeze")


@dataclass(frozen=True)
class LyapunovCertificate:
    """Candidate Lyapunov weights and drift constants, with check results.

    The weights and constants are supplied by the caller (searching for them
    is out of scope); check_assumptions fills the five booleans and the
    worst-case residuals. Each constant is held as a Python float above 0
    (_real, raising CertificateError); validate_shape checks the weights.
    Fields are frozen, so no constant skips that check: dataclasses.replace
    re-checks.
    """

    v0: np.ndarray
    v1: np.ndarray
    rho0: float
    l0: float
    m0: float
    rho1: float
    b1: float
    m1: float
    drift0_ok: bool | None = None
    rate_bound_ok: bool | None = None
    payoff_bound_ok: bool | None = None
    drift1_ok: bool | None = None
    squeeze_ok: bool | None = None
    residuals: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float))
        object.__setattr__(self, "v1", np.asarray(self.v1, dtype=float))
        for name in CERTIFICATE_CONSTANTS:
            try:
                value = _real(getattr(self, name), f"certificate constant {name}", 0, above=True)
            except ValueError as exc:
                raise CertificateError(str(exc)) from None
            object.__setattr__(self, name, value)

    def validate_shape(self, n_states: int) -> None:
        if self.v0.shape != (n_states,) or self.v1.shape != (n_states,):
            raise CertificateError(
                f"certificate weights must have shape ({n_states},), "
                f"got v0 {self.v0.shape}, v1 {self.v1.shape}"
            )
        # Written so that NaN and +-inf fail every check.
        if not np.all(np.isfinite(self.v0) & (self.v0 >= 1.0)):
            raise CertificateError("v0 must be finite with v0(x) >= 1 everywhere")
        if not np.all(np.isfinite(self.v1) & (self.v1 >= 1.0)):
            raise CertificateError("v1 must be finite with v1(x) >= 1 everywhere")

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, f"{name}_ok") is True for name in CERTIFICATE_CHECKS)


@dataclass
class ValueBounds:
    """Per-state a-priori envelope for the game value at any (t, x)."""

    lower: np.ndarray
    upper: np.ndarray
    representable: bool = True


def validate_generator(model: GameModel) -> ValidationReport:
    """Check off-diagonal nonnegativity, conservativity and stability of the rates.

    Dimensions are checked when the model is built, and its fields are
    frozen; rate-invariant violations are collected with an (x, a, b, y)
    witness and a residual; non-finite payoff and terminal entries are
    not_finite at (x, a, b) and x.
    """
    n = model.n_states
    # Over the finite rates only, so one NaN cannot make the tolerance NaN.
    max_abs = max(
        (
            float(np.max(np.abs(g.generator), initial=0.0, where=np.isfinite(g.generator)))
            for g in model._shape_groups
        ),
        default=0.0,
    )
    tol = CONSERVATIVITY_REL_TOL * max(max_abs, 1.0)

    violations: list[Violation] = []
    q_star = model.q_star
    for x in range(n):
        if not np.isfinite(model.payoff[x]).all():
            a, b = (int(v) for v in np.argwhere(~np.isfinite(model.payoff[x]))[0])
            violations.append(Violation("not_finite", x, a, b, residual=math.inf))
        if not math.isfinite(model.terminal[x]):
            violations.append(Violation("not_finite", x, residual=math.inf))
        q = model.generator[x]
        if not np.isfinite(q).all():
            bad = np.argwhere(~np.isfinite(q))
            a, b, y = (int(v) for v in bad[0])
            violations.append(Violation("not_finite", x, a, b, y, residual=math.inf))
            continue
        off = q.copy()
        off[:, :, x] = 0.0
        neg = np.argwhere(off < 0.0)
        for a, b, y in neg:
            violations.append(
                Violation("offdiag_negative", x, int(a), int(b), int(y), float(off[a, b, y]))
            )
        rowsums = q.sum(axis=2)
        bad_rows = np.argwhere(np.abs(rowsums) > tol)
        for a, b in bad_rows:
            violations.append(
                Violation("not_conservative", x, int(a), int(b), None, float(rowsums[a, b]))
            )
        if q_star[x] < -tol:
            a, b = np.unravel_index(int(np.argmax(q[:, :, x])), q[:, :, x].shape)
            violations.append(Violation("not_stable", x, int(a), int(b), x, float(q_star[x])))
    return ValidationReport(violations=violations, q_star=q_star, max_abs_rate=max_abs, tolerance=tol)


def check_assumptions(
    model: GameModel, cert: LyapunovCertificate, tol: float
) -> LyapunovCertificate:
    """Verify the standing drift conditions numerically against a candidate certificate.

    Fills the five boolean flags and records the worst residual per check,
    read from one pass over the model's shape groups (residual = left-hand
    side minus the tolerance-free bound; a check passes when its residual is
    <= tol). The tolerance is caller-supplied because gridded continuous
    models perturb exact drift identities; it must be finite and >= 0 (an
    infinite tol would pass every check, a NaN one fail them all).

    Checks:
        drift0:        sum_y v0(y) q(y|x,a,b) <= rho0 v0(x)
        rate_bound:    q*(x) <= l0 v0(x)
        payoff_bound:  |r| and |g| <= m0 + (sqrt(2)/2) sqrt(ln v0(x))
        drift1:        sum_y v1(y)^2 q(y|x,a,b) <= rho1 v1(x)^2 + b1
        squeeze:       v0(x)^2 <= m1 v1(x)
    """
    tol = _real(tol, "tol", 0)
    cert.validate_shape(model.n_states)
    v0, v1 = cert.v0, cert.v1

    # Per state: the largest drift of v0 and of v1^2 over action pairs, and max |r|.
    drift0, drift1, r_max = np.empty((3, model.n_states))
    for group in model._shape_groups:
        q = group.generator.reshape(*group.payoff.shape, -1)  # (k, |A||B|, n) @ v rounds otherwise
        drift0[group.states] = np.max(q @ v0, axis=(1, 2))
        drift1[group.states] = np.max(q @ v1**2, axis=(1, 2))
        r_max[group.states] = np.max(np.abs(group.payoff), axis=(1, 2))
    log_v0 = np.array([math.log(v) for v in v0])  # numpy's log may differ in the last bit
    bound = cert.m0 + (math.sqrt(2.0) / 2.0) * np.sqrt(log_v0)

    if np.all(model.terminal == 0.0):
        # Weaker logarithmic payoff bound available when g vanishes; informational only.
        weak = np.max(r_max - (cert.m0 + log_v0 / (2.0 * model.horizon * model.theta)))
        logger.info(
            "terminal reward is identically zero; weaker log-form payoff bound residual %.3g",
            weak,
        )

    # In CERTIFICATE_CHECKS order. Unlike max(), np.max keeps a NaN, and a NaN
    # residual fails its check.
    excess = (
        drift0 - cert.rho0 * v0,
        model.q_star - cert.l0 * v0,
        np.concatenate([r_max - bound, np.abs(model.terminal) - bound]),
        drift1 - (cert.rho1 * v1**2 + cert.b1),
        v0**2 - cert.m1 * v1,
    )
    residuals = {
        name: float(np.max(e)) for name, e in zip(CERTIFICATE_CHECKS, excess, strict=True)
    }
    flags = {f"{name}_ok": bool(r <= tol) for name, r in residuals.items()}
    return replace(cert, residuals=residuals, **flags)


def compute_value_bounds(model: GameModel, cert: LyapunovCertificate) -> ValueBounds:
    """Explicit per-state envelope for the risk-sensitive value.

    upper(x) = L v0(x) with L = exp(2T theta (m0 + T theta) + 2 theta (m0 + theta) + rho0 T);
    lower(x) = exp(-theta [T e^{rho0 T} + m0 T + e^{rho0 T} + m0] v0(x)).

    Requires the drift0 / rate_bound / payoff_bound checks to have passed.
    If the upper-bound exponent exceeds _MAX_EXP_ARG the bound is flagged as
    not representable (upper = +inf) instead of overflowing. A factor
    e^{rho0 T} that overflows saturates to +inf, and the lower envelope is
    then 0.0, still a valid bound.
    """
    for name in ("drift0_ok", "rate_bound_ok", "payoff_bound_ok"):
        if getattr(cert, name) is not True:
            raise CertificateError(
                f"value bounds need certificate check {name} to have passed; "
                "run check_assumptions first"
            )
    theta, T = model.theta, model.horizon
    exponent = 2.0 * T * theta * (cert.m0 + T * theta) + 2.0 * theta * (cert.m0 + theta) + cert.rho0 * T
    representable = exponent <= _MAX_EXP_ARG
    if representable:
        upper = math.exp(exponent) * cert.v0
    else:
        logger.warning(
            "upper bound not representable: exponent %.3g exceeds %g", exponent, _MAX_EXP_ARG
        )
        upper = np.full_like(cert.v0, math.inf)
    with np.errstate(over="ignore"):
        e_rho = float(np.exp(cert.rho0 * T))
    lower_const = T * e_rho + cert.m0 * T + e_rho + cert.m0
    lower = np.exp(-theta * lower_const * cert.v0)
    return ValueBounds(lower=lower, upper=upper, representable=representable)
