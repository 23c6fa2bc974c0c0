import gc
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nvunmix import BasisPair, Spectrum
from nvunmix.synth import DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE, SpectralShapeModel, make_spectrum

settings.register_profile(
    "suite", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# For a longer search (the CI workflow runs it): pytest --hypothesis-profile deep
settings.register_profile("deep", settings.get_profile("suite"), max_examples=500)
settings.load_profile("suite")

# Shapes whose support is numerically dead around the other state's line
# window, for tests that assert near-exact cancellation or recovery.
CLEAN_NV0_SHAPE = SpectralShapeModel(
    575.0, 1.8, 0.35, ((591.0, 5.0, 0.40), (602.0, 4.5, 0.25))
)
CLEAN_NVM_SHAPE = SpectralShapeModel(
    637.0, 1.7, 0.25, ((702.0, 13.0, 0.45), (748.0, 15.0, 0.30))
)


@pytest.fixture
def piped():
    """Make ``/dev/fd/N`` paths that read the given bytes (under the pipe capacity)
    from a pipe whose write end is closed, as a shell's ``<(...)`` gives them.
    Reading such a path a second time gives no bytes."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd on this platform")
    read_ends = []

    def make(data: bytes) -> str:
        r, w = os.pipe()
        read_ends.append(r)
        os.write(w, data)
        os.close(w)
        return f"/dev/fd/{r}"

    yield make
    for r in read_ends:
        os.close(r)


@pytest.fixture(scope="session")
def grid02():
    """550-850 nm at 0.2 nm."""
    return np.linspace(550.0, 850.0, 1501)


@pytest.fixture(scope="session")
def default_basis(grid02) -> BasisPair:
    return BasisPair(
        make_spectrum(DEFAULT_NV0_SHAPE, grid02, 1.0),
        make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0),
    )


@pytest.fixture(scope="session")
def clean_basis(grid02) -> BasisPair:
    return BasisPair(
        make_spectrum(CLEAN_NV0_SHAPE, grid02, 1.0),
        make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0),
    )


def combine(basis: BasisPair, c0: float, cminus: float) -> Spectrum:
    return Spectrum(
        basis.grid, c0 * basis.s0.intensities + cminus * basis.sminus.intensities
    )


def assert_spectra_equal(a: Spectrum, b: Spectrum) -> None:
    assert np.array_equal(a.wavelengths, b.wavelengths)
    assert np.array_equal(a.intensities, b.intensities)


def _refuse_constant(token):
    raise AssertionError(f"{token} is not JSON")


def strict_json(text: str):
    """``text`` parsed as JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def allocated_beyond_result(call) -> int:
    """Bytes ``call()`` allocates at its tracemalloc peak beyond what it still holds on
    return (its result), measured on a second call so first-call caches do not count."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - kept
