import pytest

# Pytest rewrites asserts only in test modules; the oracles guard their own
# invariants with assert, so register them to keep those checks under -O.
pytest.register_assert_rewrite("tests.oracles")
