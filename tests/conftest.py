import numpy as np
import pytest
from scipy.stats import unitary_group

from omxsim import protocols
from omxsim.fock import ModeRegistry, StateVector


@pytest.fixture(autouse=True)
def cold_sides():
    """Forget every built side and readout transfer after each test: one
    built under a monkeypatched constructor, `apply` or limit must not
    serve another."""
    yield
    protocols._sides.cache_clear()
    protocols._transfer.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_pure(registry: ModeRegistry, rng) -> StateVector:
    amps = rng.normal(size=registry.dimension) + 1j * rng.normal(size=registry.dimension)
    return StateVector(registry, amps / np.linalg.norm(amps))


def random_unitary(dim: int, rng) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=np.random.RandomState(int(rng.integers(1 << 31))))


def brute_partial_trace(matrix: np.ndarray, dims, keep) -> np.ndarray:
    """Loop-based partial trace, independent of the library implementation."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]

    def occ(index):
        out = []
        for d in dims:
            index, r = divmod(index, d)
            out.append(r)
        return out

    kdims = [dims[i] for i in keep]
    dk = int(np.prod(kdims))

    def kept_index(occupation):
        idx, stride = 0, 1
        for pos in keep:
            idx += occupation[pos] * stride
            stride *= dims[pos]
        return idx

    out = np.zeros((dk, dk), dtype=complex)
    d = int(np.prod(dims))
    for i in range(d):
        oi = occ(i)
        for j in range(d):
            oj = occ(j)
            if all(oi[t] == oj[t] for t in traced):
                out[kept_index(oi), kept_index(oj)] += matrix[i, j]
    return out
