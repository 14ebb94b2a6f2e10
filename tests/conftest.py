import os
from pathlib import Path

import numpy as np
import pytest

# The shared draws, under the names the test modules use.
from channelgeo.algebra import random_density as rand_density
from channelgeo.algebra import random_hermitian as rand_hermitian
from channelgeo.algebra import random_unitary as rand_unitary
from channelgeo.coherence import DephasingChannel, computational_dephasing

# CLI tests run `python -m channelgeo.cli` in a child process; let it find src/ too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pairs(M) -> list:
    """A complex matrix as the nested [re, im] pairs a config holds."""
    M = np.asarray(M, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in M]


def rand_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def rand_probs(rng: np.random.Generator, d: int) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, size=d)
    return p / p.sum()


def dephasing_families(rng: np.random.Generator, d: int) -> list[DephasingChannel]:
    """Computational, rotated rank-1 and rank-2 block projector families."""
    Q = rand_unitary(rng, d)
    rank1 = [np.outer(Q[:, k], Q[:, k].conj()) for k in range(d)]
    blocks = [Q[:, k : k + 2] @ Q[:, k : k + 2].conj().T for k in range(0, d, 2)]
    return [
        computational_dephasing(d),
        DephasingChannel(projectors=tuple(rank1)),
        DephasingChannel(projectors=tuple(blocks)),
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
