"""Shared fixtures: the committed two-state model and small helper builders."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ctsg import io as artifacts
from ctsg.example_games import build_rps
from ctsg.model import GameModel, LyapunovCertificate

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def two_state_model() -> GameModel:
    return artifacts.load_model(FIXTURES / "two_state_model.json")


@pytest.fixture(scope="session")
def two_state_cert() -> LyapunovCertificate:
    return artifacts.load_certificate(FIXTURES / "two_state_cert.json")


def refused_real(name: str, value: float, bound: str = "above 0") -> str:
    """The pattern of model._real's message on a float value for name: not finite, or not bound."""
    if math.isfinite(value):
        return f"^{re.escape(f'{name} must be {bound}, got {value}')}$"
    return f"^{re.escape(f'{name}={value!r} is not a finite real number')}$"


def single_state_model(r0: float, g0: float = 0.0, theta: float = 1.0, T: float = 1.0) -> GameModel:
    """One state, one action per player, no jumps."""
    return GameModel(
        actions_p1=[[0]],
        actions_p2=[[0]],
        payoff=[np.array([[r0]])],
        generator=[np.zeros((1, 1, 1))],
        terminal=np.array([g0]),
        theta=theta,
        horizon=T,
    )


def random_bounded_model(
    rng: np.random.Generator,
    n_states: int = 2,
    n_actions: int = 2,
    rate_scale: float = 1.0,
    payoff_scale: float = 1.0,
) -> GameModel:
    """Random conservative model for property tests."""
    payoff = []
    generator = []
    for x in range(n_states):
        payoff.append(rng.uniform(-payoff_scale, payoff_scale, size=(n_actions, n_actions)))
        q = np.zeros((n_actions, n_actions, n_states))
        for a in range(n_actions):
            for b in range(n_actions):
                rates = rng.uniform(0.0, rate_scale, size=n_states)
                rates[x] = 0.0
                q[a, b] = rates
                q[a, b, x] = -rates.sum()
        generator.append(q)
    return GameModel(
        actions_p1=[list(range(n_actions))] * n_states,
        actions_p2=[list(range(n_actions))] * n_states,
        payoff=payoff,
        generator=generator,
        terminal=rng.uniform(-0.5, 0.5, size=n_states),
        theta=1.0,
        horizon=1.0,
    )


def mixed_shape_model() -> GameModel:
    """States with 1x3, 3x1, 2x2, 2x3, 1x1 and all-zero 2x2 games; integer data."""
    rng = np.random.default_rng(11)
    shapes = [(1, 3), (3, 1), (2, 2), (2, 3), (1, 1), (2, 2)]
    n = len(shapes)
    payoff, generator = [], []
    for x, (na, nb) in enumerate(shapes):
        q = rng.integers(0, 3, size=(na, nb, n)).astype(float)
        q[:, :, x] = 0.0
        q[:, :, x] = -q.sum(axis=2)
        payoff.append(rng.integers(-3, 4, size=(na, nb)).astype(float))
        generator.append(q)
    payoff[5][:] = 0.0
    generator[5][:] = 0.0
    return GameModel(
        actions_p1=[list(range(na)) for na, _ in shapes],
        actions_p2=[list(range(nb)) for _, nb in shapes],
        payoff=payoff,
        generator=generator,
        terminal=np.zeros(n),
        theta=1.0,
        horizon=1.0,
    )


def action_dependent_rps(n_x: int, T: float) -> GameModel:
    """rps whose sojourn rate 2 f1[a] f2[b] depends on both actions."""
    f1, f2 = np.array([0.2, 0.6, 1.0]), np.array([1.0, 0.5, 0.25])
    rate = (2.0 * f1[:, None]) * f2[None, :]  # the product order of 2 f1[a] f2[b]
    model, _ = build_rps(0.35, x_max=8.0, n_x=n_x, theta=1.0, T=T)
    return dataclasses.replace(model, generator=[rate[:, :, None] * q for q in model.generator])


def lifted_rps8(theta_k: float) -> GameModel:
    """rps on 8 states (the CLI's default parameters) with terminal raised by theta_k / theta."""
    model, _ = build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
    return dataclasses.replace(model, terminal=model.terminal + theta_k / model.theta)
