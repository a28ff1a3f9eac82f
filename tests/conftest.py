import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rankloc.codes import CodeParams, LocalRankCode, build_code
from rankloc.gf import Field, FieldSpec, gfq_rank, tower_build


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # touch the jit kernels once so timed tests do not pay compilation
    gfq_rank(np.eye(3, dtype=np.uint8), 2)
    gfq_rank(np.eye(3, dtype=np.uint8), 3)


@pytest.fixture(scope="session")
def example2_field():
    return Field(FieldSpec.default(2, 9))


@pytest.fixture(scope="session")
def example2_code(example2_field):
    f = example2_field
    tower = tower_build(
        2, 9, 9, 3,
        g=f.omega_pow(73),
        basis_a=[f.one, f.omega_pow(73), f.omega_pow(146)],
        basis_b=[f.one, f.omega_pow(309), f.omega_pow(107)],
    )
    return LocalRankCode(CodeParams(2, 9, 9, 4, 2, 2), tower)


@pytest.fixture(scope="session")
def tiny_code():
    return build_code(2, 6, 6, 2, 1, 2)
