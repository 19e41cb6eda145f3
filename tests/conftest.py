"""Shared fixtures and hypothesis profiles."""

from __future__ import annotations

import os

import hypothesis
import pytest

from cosetgeom.cayley import build_ball
from cosetgeom.cosetgraph import build_coset_patch
from cosetgeom.groups import (
    baumslag_solitar,
    free_abelian_group,
    free_group,
)
from cosetgeom.subgroups import vertex_subgroup

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("default", max_examples=75)
hypothesis.settings.register_profile("thorough", max_examples=400)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def ball_bs12_r10():
    return build_ball(baumslag_solitar(1, 2), 10)


@pytest.fixture(scope="session")
def ball_bs23_r10():
    return build_ball(baumslag_solitar(2, 3), 10)


@pytest.fixture(scope="session")
def ball_free2_r8():
    return build_ball(free_group(2), 8)


@pytest.fixture(scope="session")
def ball_ab2_r12():
    return build_ball(free_abelian_group(2), 12)


def _vertex_patch(ball):
    return build_coset_patch(vertex_subgroup(), ball)


@pytest.fixture(scope="session")
def patch_bs12_r10(ball_bs12_r10):
    return _vertex_patch(ball_bs12_r10)


@pytest.fixture(scope="session")
def patch_bs23_r10(ball_bs23_r10):
    return _vertex_patch(ball_bs23_r10)


@pytest.fixture(scope="session")
def patch_free2_r8(ball_free2_r8):
    return _vertex_patch(ball_free2_r8)


@pytest.fixture(scope="session")
def patch_ab2_r12(ball_ab2_r12):
    return _vertex_patch(ball_ab2_r12)
