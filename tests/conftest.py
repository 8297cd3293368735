import pytest

from ttwsusy import model


def clear_quadrature_caches() -> None:
    """Empty this process's caches of Gauss rules, grids and angular rows,
    so that a run afterwards builds every one of them it reads."""
    for cache in (model._laguerre_rule, model._jacobi_rule, model._grid, model._angular_row):
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the quadrature caches before the test, so that it sees every
    object its runs build, and after it, so that nothing it built under
    its patches is read by a later test."""
    clear_quadrature_caches()
    yield
    clear_quadrature_caches()
