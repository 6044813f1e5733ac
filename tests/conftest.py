import sys

import pytest


@pytest.fixture
def digit_limit_640():
    """Lower int -> str conversion to its minimum of 640 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)
