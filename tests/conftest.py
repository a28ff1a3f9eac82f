import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rankloc.codes import CodeParams, LocalRankCode, build_code
from rankloc.gf import Field, FieldSpec, tower_build


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
