import pytest

from umbral_flow.carlitz import CarlitzCtx
from umbral_flow.fq import field


@pytest.fixture(scope="session")
def F2():
    return field(2)


@pytest.fixture(scope="session")
def F3():
    return field(3)


@pytest.fixture(scope="session")
def F4():
    return field(2, 2, (1, 1, 1))


@pytest.fixture(scope="session")
def cc2(F2):
    return CarlitzCtx(F2)


@pytest.fixture(scope="session")
def cc3(F3):
    return CarlitzCtx(F3)


@pytest.fixture(scope="session")
def cc4(F4):
    return CarlitzCtx(F4)


def _assert_refines(fast, ref):
    """``fast`` is the series ``ref`` computed another way and never less
    precise: every coefficient agrees with ref's below the lower of their
    two precisions, and no coefficient of fast has lower ``prec``."""
    assert fast.trunc == ref.trunc
    for h, (a, b) in enumerate(zip(fast.coeffs, ref.coeffs)):
        assert (a - b).val_lower_bound() >= min(a.prec, b.prec), h
        assert a.prec >= b.prec, (h, a.prec, b.prec)


@pytest.fixture(scope="session")
def assert_refines():
    return _assert_refines
