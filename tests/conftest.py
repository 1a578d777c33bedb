import numpy as np
import pytest
from scipy.linalg import toeplitz

from wsld.operators import table_for_grid


@pytest.fixture
def dense_left():
    """``(alpha, shifts, grid) -> A``: the dense left operator from ``scipy.linalg.toeplitz``.

    An oracle written independently of ``assemble_left``: first column
    ``phi_{i+m}``, first row ``phi_m, ..., phi_0`` and zeros.
    """

    def build(alpha, shifts, grid):
        table = table_for_grid(alpha, shifts, grid)
        n, m = grid.n_interior, table.max_shift
        row = np.zeros(n)
        row[: m + 1] = table.phi[m::-1]
        return toeplitz(table.phi[m : m + n], row)

    return build
