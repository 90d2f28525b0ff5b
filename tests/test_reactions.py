import dataclasses

import numpy as np
import pytest

from nlfb import logistic, tabulated
from nlfb.reactions import Reaction


def test_logistic_basics():
    f = logistic()
    assert f.fprime0 == 1.0
    assert f.u_star == 1.0
    assert f(0.0) == 0.0
    assert f(1.0) == 0.0
    assert f(0.5) == 0.25
    assert f(2.0) < 0.0


def test_logistic_scale():
    f = logistic(0.5)
    assert f.fprime0 == 0.5
    assert abs(f(0.5) - 0.125) < 1e-15
    with pytest.raises(ValueError):
        logistic(0.0)


def test_lipschitz_bound_logistic():
    # |f'| on [0, 2] for u(1-u) is max at u = 2: |1 - 2u| = 3
    f = logistic()
    lip = f.lipschitz(2.0)
    assert 2.9 <= lip <= 3.1


def test_tabulated_reaction():
    f = tabulated([0.0, 0.5, 1.0, 1.5], [0.0, 0.3, 0.0, -0.5])
    assert f.fprime0 == 0.6
    assert abs(f.u_star - 1.0) < 1e-12
    assert f(0.25) == 0.15
    assert f(1.25) < 0.0


def test_tabulated_validations():
    with pytest.raises(ValueError):
        tabulated([0.1, 1.0], [0.0, 0.1])  # must start at u = 0
    with pytest.raises(ValueError):
        tabulated([0.0, 0.5, 1.0], [0.0, -0.1, -0.2])  # f'(0) <= 0
    with pytest.raises(ValueError):
        tabulated([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.3, -0.1, 0.2, -0.3])


def test_reaction_vectorized():
    f = logistic()
    u = np.array([0.0, 0.5, 1.0])
    out = f(u)
    assert out.shape == (3,)
    assert np.allclose(out, [0.0, 0.25, 0.0])


def test_kpp_bound_comes_from_the_reaction_itself():
    # f(u) <= f'(0) u: closed form for logistic, the table's own points for tabulated
    assert logistic().kpp and logistic(0.3).kpp
    assert tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.25, 0.0, -1.0]).kpp
    # the chord through (0.5, 0.6) rises above f'(0) u = 0.5
    assert not tabulated([0.0, 0.1, 0.5, 1.0], [0.0, 0.1, 0.6, 0.0]).kpp
    with pytest.raises(TypeError):
        Reaction(f=lambda u: u, fprime0=1.0, u_star=1.0, kpp=True)
    with pytest.raises(ValueError):
        dataclasses.replace(logistic(), kpp=True)
    # a reaction built by hand, or copied with a new f, carries no proof
    assert not Reaction(f=logistic().f, fprime0=1.0, u_star=1.0).kpp
    assert not dataclasses.replace(logistic(), f=lambda u: 2.0 * u).kpp
