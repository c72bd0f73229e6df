"""Shared fixtures and helpers for the covrate test suite."""
from __future__ import annotations

import numpy as np
import pytest

from covrate.fusion import FusionNetwork, SensorNode
from covrate.model import JointGaussianModel, analyze
from covrate.simkit import random_spd


def random_spd_pair(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    return random_spd(n, rng), random_spd(n, rng)


def rel_fro(A: np.ndarray, B: np.ndarray) -> float:
    """Relative Frobenius distance ``|A - B| / max(|B|, 1)``."""
    return float(np.linalg.norm(A - B) / max(np.linalg.norm(B), 1.0))


def scalar_remote_model() -> JointGaussianModel:
    """Unit-variance source observed through noise so that the conditional
    variance of the source given the observation is exactly 1/4."""
    return JointGaussianModel(
        Sigma_x=np.array([[1.0]]),
        Sigma_y=np.array([[4.0 / 3.0]]),
        Sigma_z=np.zeros((0, 0)),
        Sigma_xy=np.array([[1.0]]),
        Sigma_xz=np.zeros((1, 0)),
        Sigma_yz=np.zeros((1, 0)),
    )


@pytest.fixture
def scalar_stats():
    return analyze(scalar_remote_model())


def random_two_node_net(rng: np.random.Generator, R: float = 5.0) -> FusionNetwork:
    """A small random two-node fusion network with identity mixing."""
    n = int(rng.integers(1, 5))
    Sigma_xd = random_spd(n, rng)
    nodes = []
    a1 = float(rng.uniform(0.3, 0.7))
    for alpha in (a1, 1.0 - a1):
        scale = float(rng.uniform(0.05, 0.4))
        nodes.append(
            SensorNode(W=np.eye(n), Sigma_n=scale * random_spd(n, rng), alpha=alpha)
        )
    return FusionNetwork(Sigma_xd=Sigma_xd, nodes=tuple(nodes), R=R)
