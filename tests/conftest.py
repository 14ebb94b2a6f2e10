import os
from pathlib import Path

import numpy as np
import pytest

# The shared draws, under the names the test modules use.
from channelgeo.algebra import random_density as rand_density
from channelgeo.algebra import random_hermitian as rand_hermitian
from channelgeo.algebra import random_unitary as rand_unitary

# CLI tests run `python -m channelgeo.cli` in a child process; let it find src/ too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def rand_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def rand_probs(rng: np.random.Generator, d: int) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, size=d)
    return p / p.sum()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
