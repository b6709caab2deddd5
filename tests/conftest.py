import math

import numpy as np
import pytest

from susyband._csvtext import BLOCK_ROWS
from susyband.scenarios import band_structure_for, run_scenario
from susyband.potentials import lame

_RUN_CACHE = {}


@pytest.fixture(scope="session")
def scenario_cache():
    """Run scenarios lazily and share the results across the whole session;
    each one costs seconds, and several tests interrogate the same run."""

    def get(name):
        if name not in _RUN_CACHE:
            _RUN_CACHE[name] = run_scenario(name)
        return _RUN_CACHE[name]

    return get


@pytest.fixture(scope="session")
def lame_bands():
    def get(n, m=0.5):
        return band_structure_for(lame(n, m))

    return get


_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e-300, 1.0 / 3.0, -2.5e-7)


@pytest.fixture(scope="session")
def block_edge_column():
    """A CSV column of `rows` random values of every magnitude, with the
    special values (signed zeros, infinities, NaN, extremes) planted in the
    last row and in the first two and last two rows of every block of
    BLOCK_ROWS, the writers' block size; `shift` varies both."""

    def get(rows, shift):
        rng = np.random.default_rng([rows, shift])
        out = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        edge = (0, 1, BLOCK_ROWS - 2, BLOCK_ROWS - 1)
        at = [i for i in range(rows) if i % BLOCK_ROWS in edge or i == rows - 1]
        out[at] = np.resize(np.roll(_SPECIAL, shift), len(at))
        return out

    return get


@pytest.fixture(params=[1, *(k * BLOCK_ROWS + d for k in (1, 4) for d in (-1, 0, 1)),
                        2 * BLOCK_ROWS + 1, 8 * BLOCK_ROWS + 1])
def block_edge_rows(request):
    """Row counts of one row; of one block short, whole and one row over, for
    one block and for four (2048 rows, one default period); and of three and
    of nine blocks, the last of one row."""
    return request.param
