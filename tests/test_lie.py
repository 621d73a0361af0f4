"""Rotation and extended-pose group operations, checked against scipy's
matrix exponential and series expansions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from swarmnav.lie import (
    ExtendedPose,
    check_rotation,
    compose,
    inverse,
    se23_exp,
    se23_log,
    skew,
    so3_exp,
    so3_gamma2,
    so3_integrals,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
)

rng = np.random.default_rng(42)


def random_rotation(rg=rng):
    return so3_exp(rg.uniform(-np.pi * 0.9, np.pi * 0.9) * _unit(rg))


def _unit(rg):
    v = rg.standard_normal(3)
    return v / np.linalg.norm(v)


def test_skew_cross_product():
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(skew(a) @ b, np.cross(a, b))
    assert np.allclose(skew([1, 2, 3]).T, -skew([1, 2, 3]))


def test_so3_exp_matches_expm():
    for _ in range(50):
        phi = rng.uniform(-3, 3, size=3)
        assert np.allclose(so3_exp(phi), expm(skew(phi)), atol=1e-12)


def test_so3_exp_small_angle_matches_expm():
    for scale in (1e-5, 1e-8, 1e-10, 0.0):
        phi = scale * np.array([1.0, -2.0, 0.5])
        assert np.allclose(so3_exp(phi), expm(skew(phi)), atol=1e-15)


def test_so3_log_roundtrip():
    for _ in range(100):
        phi = rng.uniform(-0.99 * np.pi, 0.99 * np.pi) * _unit(rng)
        assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)


def test_so3_log_near_pi():
    # Either sign of the axis is a valid logarithm at angle pi; round-trip
    # through exp instead of comparing vectors.
    for _ in range(20):
        phi = (np.pi - 1e-9) * _unit(rng)
        R = so3_exp(phi)
        assert np.allclose(so3_exp(so3_log(R)), R, atol=1e-6)


def test_so3_log_rejects_non_rotation():
    with pytest.raises(ValueError):
        so3_log(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        so3_log(np.diag([1.0, 1.0, -1.0]))  # determinant -1
    nan = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        check_rotation(nan)
    with pytest.raises(ValueError):
        so3_log(nan)


def test_left_jacobian_finite_difference():
    # exp(phi + d) ~ exp(J_l(phi) d) exp(phi)
    h = 1e-7
    for _ in range(20):
        phi = rng.uniform(-2.5, 2.5, size=3)
        J = so3_left_jacobian(phi)
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            lhs = so3_exp(phi + d)
            rhs = so3_exp(J @ d) @ so3_exp(phi)
            assert np.allclose(lhs, rhs, atol=1e-9)


def test_left_jacobian_inverse():
    for _ in range(30):
        phi = rng.uniform(-3, 3, size=3)
        J = so3_left_jacobian(phi)
        assert np.allclose(J @ so3_left_jacobian_inv(phi), np.eye(3), atol=1e-10)
    phi = np.array([1e-9, 0, 0])
    assert np.allclose(
        so3_left_jacobian(phi) @ so3_left_jacobian_inv(phi), np.eye(3), atol=1e-14
    )


def test_gamma2_series():
    # sum over n of skew(phi)^n / (n+2)!
    import math

    for _ in range(20):
        phi = rng.uniform(-2, 2, size=3)
        S = skew(phi)
        total = np.zeros((3, 3))
        term = np.eye(3)
        for n in range(0, 30):
            total += term / math.factorial(n + 2)
            term = term @ S
        assert np.allclose(so3_gamma2(phi), total, atol=1e-12)


def test_gamma2_small_angle_limit():
    assert np.allclose(so3_gamma2(np.zeros(3)), np.eye(3) / 2.0)


def test_compose_matches_matrix_product():
    for _ in range(20):
        a = ExtendedPose(random_rotation(), rng.standard_normal(3), rng.standard_normal(3))
        b = ExtendedPose(random_rotation(), rng.standard_normal(3), rng.standard_normal(3))
        assert np.allclose(compose(a, b).as_matrix(), a.as_matrix() @ b.as_matrix())


def test_inverse():
    for _ in range(20):
        a = ExtendedPose(random_rotation(), rng.standard_normal(3), rng.standard_normal(3))
        e = compose(a, inverse(a))
        assert np.allclose(e.as_matrix(), np.eye(5), atol=1e-12)


def test_se23_exp_matches_expm():
    for _ in range(20):
        xi = rng.uniform(-2, 2, size=9)
        A = np.zeros((5, 5))
        A[:3, :3] = skew(xi[:3])
        A[:3, 3] = xi[3:6]
        A[:3, 4] = xi[6:9]
        assert np.allclose(se23_exp(xi).as_matrix(), expm(A), atol=1e-10)


def test_se23_log_roundtrip():
    for _ in range(50):
        xi = rng.uniform(-2, 2, size=9)
        assert np.allclose(se23_log(se23_exp(xi)), xi, atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-2.5, 2.5), min_size=9, max_size=9))
def test_se23_roundtrip_property(vals):
    xi = np.array(vals)
    X = se23_exp(xi)
    back = se23_log(X)
    assert np.allclose(se23_exp(back).as_matrix(), X.as_matrix(), atol=1e-8)


def test_se23_log_degenerate_at_pi():
    X = ExtendedPose(so3_exp(np.array([np.pi, 0, 0])), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        se23_log(X)


_ANGLE = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-7, 1e-7), st.just(0.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ANGLE, _ANGLE, _ANGLE), min_size=1, max_size=6))
def test_stacked_so3_matrices_match_single_calls(vectors):
    # A stack mixes closed-form and small-angle vectors; each matrix must be
    # bit for bit what a call with that vector alone gives.
    phis = np.array(vectors, dtype=float)
    for f in (skew, so3_exp, so3_left_jacobian, so3_gamma2):
        stacked = f(phis)
        assert stacked.shape == (len(phis), 3, 3)
        for phi, M in zip(phis, stacked):
            assert M.tobytes() == f(phi).tobytes(), f.__name__
    # The three of mechanize from one shared computation of their terms.
    for M, f in zip(so3_integrals(phis), (so3_exp, so3_left_jacobian, so3_gamma2)):
        assert M.tobytes() == f(phis).tobytes(), f.__name__


@settings(max_examples=200, deadline=None)
@given(st.tuples(_ANGLE, _ANGLE, _ANGLE),
       st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6))
def test_se23_exp_reads_the_so3_maps_bit_for_bit(phi, rest):
    # se23_exp computes the angle terms once for both of its SO(3) maps;
    # the result must be what the two maps give on their own.
    phi, nu, rho = np.array(phi), np.array(rest[:3]), np.array(rest[3:])
    X = se23_exp(np.concatenate([phi, nu, rho]))
    J = so3_left_jacobian(phi)
    for got, ref in ((X.rotation, so3_exp(phi)), (X.velocity, J @ nu),
                     (X.position, J @ rho)):
        assert got.tobytes() == ref.tobytes()
