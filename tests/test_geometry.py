"""Geometry primitives: signed distances, unit directions, cosines, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentsteer import (
    DegenerateModelError,
    DimensionMismatchError,
    Hyperplane,
    as_latent,
    cosine_similarity,
    pairwise_cosines,
    project_to_hyperplane,
    sample_latents,
    signed_distance,
    unit_direction,
)


def test_signed_distance_hand_values():
    # frozen by direct substitution into -(d.z + b)/|d|
    assert signed_distance(np.array([-2.0, 3.0]), Hyperplane(np.array([1.0, 0.0]), 0.0)) == 2.0
    assert signed_distance(np.array([1.0, 1.0]), Hyperplane(np.array([3.0, 4.0]), 0.0)) == pytest.approx(-1.4, abs=1e-12)


def test_signed_distance_zero_on_plane():
    h = Hyperplane(np.array([2.0, -1.0]), 3.0)
    z = np.array([0.0, 3.0])  # 2*0 - 1*3 + 3 = 0
    assert signed_distance(z, h) == 0.0


def test_signed_distance_dimension_mismatch_names_both_dims():
    with pytest.raises(DimensionMismatchError) as exc:
        signed_distance(np.array([1.0, 2.0, 3.0]), Hyperplane(np.array([1.0, 0.0]), 0.0))
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_unit_direction_hand_values():
    np.testing.assert_allclose(
        unit_direction(Hyperplane(np.array([3.0, 4.0]), 1.0)), [0.6, 0.8], atol=1e-15
    )
    np.testing.assert_array_equal(
        unit_direction(Hyperplane(np.array([1.0, 0.0]), 0.0)), [1.0, 0.0]
    )


def test_unit_direction_norm_tight():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.standard_normal(8) * rng.uniform(0.01, 100)
        assert abs(np.linalg.norm(unit_direction(Hyperplane(d, 0.0))) - 1.0) < 1e-12


def test_degenerate_direction_rejected():
    h = Hyperplane(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(DegenerateModelError):
        unit_direction(h)
    with pytest.raises(DegenerateModelError):
        signed_distance(np.array([1.0, 2.0]), h)


def test_cosine_similarity_hand_values():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70711, abs=1e-5)
    v = np.array([0.3, -2.0, 5.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_similarity_zero_vector_rejected():
    with pytest.raises(DegenerateModelError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    a=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    b=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    scale=st.floats(1e-3, 1e3),
)
def test_cosine_symmetry_and_positive_scale_invariance(a, b, scale):
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
        return
    c = cosine_similarity(a, b)
    assert -1.0 <= c <= 1.0
    assert cosine_similarity(b, a) == pytest.approx(c, abs=1e-12)
    assert cosine_similarity(scale * a, b) == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("k", [-900, 900])
def test_cosines_of_vectors_scaled_by_a_power_of_two_are_byte_equal(k):
    # unscaled, the squares in the norms overflow (k = 900) or underflow to zero (k = -900)
    v = np.random.default_rng(21).standard_normal((4, 9))
    scaled = v * 2.0**k
    assert pairwise_cosines(scaled).tobytes() == pairwise_cosines(v).tobytes()
    assert cosine_similarity(scaled[0], scaled[1]) == cosine_similarity(v[0], v[1])
    assert cosine_similarity(scaled[0], v[1]) == cosine_similarity(v[0], v[1])


@pytest.mark.parametrize("k", [-900, 900])
def test_distances_and_normals_of_a_hyperplane_scaled_by_a_power_of_two_are_unchanged(k):
    # unscaled, the squares in the norm overflow (k = 900) or underflow to zero (k = -900)
    d, z = np.random.default_rng(23).standard_normal((2, 9))
    h, scaled = Hyperplane(d, 0.3), Hyperplane(d * 2.0**k, 0.3 * 2.0**k)
    assert signed_distance(z, scaled) == signed_distance(z, h)
    assert unit_direction(scaled).tobytes() == unit_direction(h).tobytes()
    assert project_to_hyperplane(z, scaled).tobytes() == project_to_hyperplane(z, h).tobytes()


def test_projection_lands_on_hyperplane():
    rng = np.random.default_rng(7)
    for dim in (2, 8, 64):
        for _ in range(100):
            z = rng.standard_normal(dim)
            d = rng.standard_normal(dim)
            h = Hyperplane(d, float(rng.standard_normal()))
            z_proj = project_to_hyperplane(z, h)
            tol = 1e-9 * np.linalg.norm(d) * (1.0 + np.linalg.norm(z))
            assert abs(h.score(z_proj)) <= tol


def test_pairwise_cosines_symmetric_unit_diagonal():
    rng = np.random.default_rng(3)
    m = pairwise_cosines(rng.standard_normal((5, 16)))
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.diag(m), np.ones(5))
    assert m.min() >= -1.0 and m.max() <= 1.0


def test_sample_latents_deterministic():
    a = sample_latents(20, 8, seed=99)
    b = sample_latents(20, 8, seed=99)
    np.testing.assert_array_equal(a, b)
    c = sample_latents(20, 8, seed=100)
    assert not np.array_equal(a, c)


def test_sample_latents_standard_normal_moments():
    # law-of-large-numbers bounds computed directly from the sample
    z = sample_latents(10000, 64, seed=5)
    means = z.mean(axis=0)
    variances = z.var(axis=0)
    assert np.all(means >= -0.05) and np.all(means <= 0.05)
    assert np.all(variances >= 0.9) and np.all(variances <= 1.1)


def test_sample_latents_rejects_empty_request():
    with pytest.raises(ValueError):
        sample_latents(0, 8, seed=1)
    with pytest.raises(ValueError):
        sample_latents(5, 1, seed=1)


def test_as_latent_validation():
    z = as_latent([1.0, 2.0, 3.0])
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        as_latent([1.0, np.nan])
    with pytest.raises(ValueError):
        as_latent([1.0])
    with pytest.raises(DimensionMismatchError):
        as_latent([1.0, 2.0], expected_dim=3)
    with pytest.raises(ValueError, match="must be 1-D"):
        as_latent([[1.0, 2.0]])
    with pytest.raises(ValueError, match="NaN or Inf"):
        signed_distance(np.array([np.inf, 0.0]), Hyperplane(np.array([1.0, 0.0]), 0.0))


def test_hyperplane_arrays_read_only():
    h = Hyperplane(np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        h.direction[0] = 9.0
