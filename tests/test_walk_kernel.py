"""The walks' in-place bisection kernel against the loop it replaced.

``_reference_times`` is the doubling and bisection loop that ``uhlmann._walk_blocks`` ran
before ``uhlmann._walk_times``, with its ``_walk_overlap``, kept verbatim as the oracle:
every walk's ``t`` must be bit-equal to it.  The kernel stops doubling at the first step
where no walk of the chunk grows, so a chunk makes 61 overlap evaluations when no walk
grows and 67 when one grows at all six steps.
"""

import numpy as np
import pytest
from conftest import walk_instances
from hypothesis import given
from hypothesis import strategies as st

from uhlmann import certificate, uhlmann


def _walk_overlap(a: np.ndarray, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``Re sum_k a_k exp(i t lam_k)``: the real overlap of each walk at its ``t``."""
    return (a * np.exp(1j * t[:, None] * lam)).sum(axis=1).real


def _reference_times(f, a, lam, target):
    n = len(target)
    lo, hi = np.zeros(n), np.full(n, np.pi / 4)
    for _ in range(6):
        grow = f - _walk_overlap(a, lam, hi) < target
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
    weak = f - _walk_overlap(a, lam, hi) < target
    t_weak = hi
    for _ in range(60):
        mid = (lo + hi) / 2
        down = f - _walk_overlap(a, lam, mid) < target
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    return np.where(weak, t_weak, lo)


def _chunk(family: str, d: int, n: int, seed: int):
    """``(f, a, lam, target)`` of n walks at dimension d, shaped as ``_walk_blocks`` hands them over.

    As in a walk, where ``a`` is the diagonal of the PSD ``V* K U0 V``, ``a``'s real parts are
    positive and sum to f, and its imaginary parts are small: every deficit starts at 0, is
    positive at pi/4 and is at most 2f.  ``still``: no target is reached at pi/4, so no walk
    grows; ``weak``: no target is ever reached, so every walk grows six times and is weak;
    ``mixed``: walk 0 never grows, walk 1 grows six times, the others' targets are log-uniform.
    """
    rng = np.random.default_rng(seed)
    f = float(rng.uniform(0.2, 1.0))
    re = rng.uniform(0.1, 1.0, (n, d))
    im = rng.normal(size=(n, d)) * 1e-7 * f / d
    a = f * re / re.sum(axis=1, keepdims=True) + 1j * (im - im.mean(axis=1, keepdims=True))
    lam = rng.uniform(-1.0, 1.0, (n, d))
    lam /= np.maximum(np.abs(lam).max(axis=1, keepdims=True), 1e-30)
    if family == "still":
        target = rng.uniform(0.3, 1.0, n) * 1e-14
    elif family == "weak":
        target = rng.uniform(3.0, 20.0, n)
    else:
        target = 10.0 ** rng.uniform(-6.0, 0.5, n)
        target[:2] = (1e-14, 10.0)[:n]
    return f, a, lam, target


def _grows_first(f, a, lam, target) -> np.ndarray:
    """Which walks grow at the first doubling step (their deficit at pi/4 is below target)."""
    return f - _walk_overlap(a, lam, np.full(len(target), np.pi / 4)) < target


@given(family=st.sampled_from(["still", "weak", "mixed"]), d=st.sampled_from([*range(1, 10), 32]),
       n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_kernel_times_are_the_reference_loops_bit_for_bit(family, d, n, seed):
    f, a, lam, target = _chunk(family, d, n, seed)
    first = _grows_first(f, a, lam, target)
    if family == "mixed":
        assert first[1:2].all() and not first[0]  # the family mixes growing and still walks
    else:
        assert (first == (family == "weak")).all()
    assert uhlmann._walk_times(f, a, lam, target).tobytes() == _reference_times(f, a, lam, target).tobytes()


def test_every_probe_walk_takes_the_reference_loops_t(monkeypatch):
    # the arguments of real chunks: kernels to complete and full rank, at eps where no walk,
    # some walks or every walk grows in the doubling
    kernel, seen = uhlmann._walk_times, []

    def checked(f, a, lam, target):
        t = kernel(f, a, lam, target)
        seen.append((t.tobytes() == _reference_times(f, a, lam, target).tobytes(),
                     int(_grows_first(f, a, lam, target).sum()), len(t)))
        return t

    monkeypatch.setattr(uhlmann, "_walk_times", checked)
    for inst in walk_instances():
        for eps in (0.0, 1e-2, 0.1, 5.0):
            certificate.primal_probe(inst, eps, 130, 3)
    assert len(seen) == 28 and all(same for same, _, _ in seen)
    assert {"none", "some", "all"} <= {"none" if g == 0 else "all" if g == n else "some" for _, g, n in seen}


@pytest.mark.parametrize("eps,calls", [(0.0, 61), (100.0, 67)])
def test_a_chunk_stops_doubling_once_no_walk_grows(eps, calls, monkeypatch):
    # eps 0: no walk reaches a target of 0 at pi/4, so the doubling stops at its first step;
    # eps 100: every target (at least 30) is past any deficit (at most 2), so all six steps run
    # and weak takes one more
    reaches, count = uhlmann._reaches, []

    def counted(*args):
        count.append(1)
        return reaches(*args)

    monkeypatch.setattr(uhlmann, "_reaches", counted)
    for inst in walk_instances():
        count.clear()
        ((rs, _),) = uhlmann._walk_blocks(inst, eps, [([np.random.default_rng(5)], 64, 64)], None)
        assert len(rs) == 64 and len(count) == calls
