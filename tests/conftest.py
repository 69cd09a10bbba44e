import numpy as np
import pytest
from hypothesis import settings

from uhlmann import matcore
from uhlmann.matcore import dagger
from uhlmann.states import BipartitePureState
from uhlmann.uhlmann import UhlmannInstance, random_instance

# One fixed profile for every property test: the same examples on every run, so Tier-1 stays deterministic.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=150)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def decompositions(monkeypatch):
    """Count numpy.linalg svd/eigh/eigvalsh/qr calls; reset with ``.clear()``."""
    counts = {}
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_hermitian(rng, d, norm=1.0):
    h = random_complex(rng, d, d)
    h = (h + dagger(h)) / 2
    return h / max(matcore.op_norm(h), 1e-30) * norm


def random_psd(rng, d, rank=None):
    rank = rank if rank is not None else d
    a = random_complex(rng, d, rank)
    return a @ dagger(a)


def random_density(rng, d, rank=None):
    p = random_psd(rng, d, rank)
    return p / np.trace(p).real


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase


def walk_instances():
    """Fixed instances for the walk tests: d = 2..6, ranks (2, 3) at d = 5, and 2 x 4."""
    rng = np.random.default_rng(3003)
    out = [random_instance(d, rng) for d in (2, 3, 4, 5, 6)]
    out.append(random_instance(5, rng, rank_c=2, rank_d=3))
    grids = [random_complex(rng, 2, 4) for _ in range(2)]
    c, d = (BipartitePureState(g / np.linalg.norm(g)) for g in grids)
    out.append(UhlmannInstance.from_states(c, d))
    return out
