import random
import sys

import pytest

from sci_workbench.catalog import load_catalog


@pytest.fixture(scope="session")
def default_catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def spectral_source(default_catalog):
    return default_catalog.first("spectral_source").problem


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def print_limit(request):
    """The interpreter's limit on the digits of an int string conversion, restored afterwards.

    It is CPython's default, 4300, unless the test is parametrized indirectly with another.
    """
    limit = getattr(request, "param", 4300)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    yield limit
    sys.set_int_max_str_digits(before)
