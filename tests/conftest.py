"""Each test starts from empty trie spaces.

The (p, n) spaces of `clopen` are process-global, so without this a test's node
ids, memo hits and run time would depend on the tests that ran before it. The
fixture clears the space table before each test and puts the previous table
back after it. `test_contains_residue_extends_the_column_over_a_large_table`
builds its own large table on purpose.
"""

import pytest

from padicapprox import clopen


@pytest.fixture(autouse=True)
def fresh_spaces():
    saved = dict(clopen._SPACES)
    clopen._SPACES.clear()
    yield
    clopen._SPACES.clear()
    clopen._SPACES.update(saved)
