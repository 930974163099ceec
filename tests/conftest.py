import numpy as np
import pytest

from helpers import unitary_channel
from qlstab import channels as ch


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _dense_step(step, frame):
    if not isinstance(step, ch.PermutationStep):
        return step
    b = frame.basis
    return unitary_channel(b[:, step.perm] @ b.conj().T, step.support, label=step.label)


@pytest.fixture
def densify():
    """Circuit -> its steps, each permutation step as the dense unitary
    channel B[:, perm] @ B^H that it stands for."""
    return lambda circ: [_dense_step(s, circ.frame) for s in circ.steps]
