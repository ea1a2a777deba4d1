"""Synthetic world: entanglement realization, rendering, oracle round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsteer import (
    AttributeSchema,
    DimensionMismatchError,
    LayoutError,
    SyntheticImage,
    SyntheticWorld,
    WorldConfig,
    WorldConfigError,
    build_world,
    generate_image,
    oracle_label,
    read_batch,
    render_batch,
    sample_latents,
)
from latentsteer.pipeline import ROW_BLOCK
from latentsteer.world import (BLOCK_SIZE, _block_means, _label_latents, _noise_draws,
                               _pcg64_raw, _read_means, direction_slots)


def simple_config(**overrides):
    defaults = dict(
        dim=16,
        attributes=(
            AttributeSchema.binary("style", "tee", "dress"),
            AttributeSchema.binary("pose", "back", "front"),
            AttributeSchema.continuous("smile", 0.0, 1.0),
        ),
        continuous_profile="sigmoid",
        seed=3,
    )
    defaults.update(overrides)
    return WorldConfig(**defaults)


def test_direction_slots_expand_multiclass():
    attrs = (
        AttributeSchema.binary("b", "n", "p"),
        AttributeSchema.multiclass("m", ("x", "y", "z")),
        AttributeSchema.continuous("c", 0.0, 1.0),
    )
    assert direction_slots(attrs) == (
        ("b", None), ("m", "x"), ("m", "y"), ("m", "z"), ("c", None)
    )


def test_identity_entanglement_gives_orthogonal_directions():
    world = build_world(simple_config())
    realized = world.realized_entanglement()
    off_diag = realized - np.eye(3)
    assert np.abs(off_diag).max() <= 1e-9


def test_configured_entanglement_is_realized():
    ent = np.array([[1.0, 0.57], [0.57, 1.0]])
    cfg = WorldConfig(
        dim=16,
        attributes=(
            AttributeSchema.binary("pose", "back", "front"),
            AttributeSchema.binary("style", "tee", "dress"),
        ),
        entanglement=ent,
        seed=5,
    )
    world = build_world(cfg)
    assert world.realized_entanglement()[0, 1] == pytest.approx(0.57, abs=1e-6)
    assert np.abs(world.realized_entanglement() - ent).max() <= 1e-6


def test_entanglement_psd_boundary():
    two_binary = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.binary("b", "n", "p"),
    )
    near_one = np.array([[1.0, 0.999999], [0.999999, 1.0]])
    world = build_world(WorldConfig(dim=8, attributes=two_binary, entanglement=near_one, seed=1))
    assert world.realized_entanglement()[0, 1] == pytest.approx(0.999999, abs=1e-6)
    # singular: Cholesky fails, and a 1e-12 jitter on the diagonal factors it
    ones = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(ones)
    world = build_world(WorldConfig(dim=8, attributes=two_binary, entanglement=ones, seed=1))
    assert world.realized_entanglement()[0, 1] == pytest.approx(1.0 / (1.0 + 1e-12), abs=1e-15)

    bad = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(WorldConfigError) as exc:
        build_world(WorldConfig(dim=8, attributes=two_binary, entanglement=bad, seed=1))
    assert "eigenvalue" in str(exc.value)


def test_entanglement_shape_and_symmetry_validation():
    two_binary = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.binary("b", "n", "p"),
    )
    with pytest.raises(WorldConfigError):
        build_world(WorldConfig(dim=8, attributes=two_binary,
                                entanglement=np.eye(3), seed=1))
    asym = np.array([[1.0, 0.3], [0.1, 1.0]])
    with pytest.raises(WorldConfigError):
        build_world(WorldConfig(dim=8, attributes=two_binary, entanglement=asym, seed=1))
    with pytest.raises(WorldConfigError, match="unit diagonal"):
        build_world(WorldConfig(dim=8, attributes=two_binary, entanglement=np.diag([2.0, 1.0]),
                                seed=1))


def test_build_world_deterministic():
    a = build_world(simple_config())
    b = build_world(simple_config())
    np.testing.assert_array_equal(a.directions, b.directions)
    np.testing.assert_array_equal(a.intercepts, b.intercepts)
    c = build_world(simple_config(seed=4))
    assert not np.array_equal(a.directions, c.directions)


def test_too_many_directions_for_dim():
    attrs = tuple(AttributeSchema.binary(f"a{i}", "n", "p") for i in range(9))
    with pytest.raises(WorldConfigError):
        build_world(WorldConfig(dim=8, attributes=attrs, seed=0))


def test_generate_image_layout_and_determinism():
    world = build_world(simple_config())
    z = sample_latents(1, 16, seed=9)[0]
    img = generate_image(world, z)
    assert img.pixels.shape == (BLOCK_SIZE, BLOCK_SIZE * 4)
    assert img.block_count == 4
    assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
    img2 = generate_image(world, z)
    np.testing.assert_array_equal(img.pixels, img2.pixels)
    for i in (-1, 4):
        with pytest.raises(LayoutError, match=f"block index {i} out of range for 4 blocks"):
            img.block(i)


def test_a_world_checks_its_directions_against_its_slots():
    world = build_world(simple_config())
    d, c, slots = world.directions, world.intercepts, world.slots
    for directions, intercepts, message in ((d[:2], c, "do not match the slot layout"),
                                            (d, c[:2], "do not match the slot layout"),
                                            (2.0 * d, c, "must be unit norm")):
        with pytest.raises(WorldConfigError, match=message):
            SyntheticWorld(world.config, directions, intercepts, slots)
    assert world.slot_index("pose") == 1
    with pytest.raises(KeyError, match="no ground-truth direction for \\('pose', 'front'\\)"):
        world.slot_index("pose", "front")


def test_binary_block_saturates_deep_in_half_space():
    world = build_world(simple_config())
    g = world.direction_for("style")
    z = 5.0 * g  # score g.z = 5, far on the positive side
    img = generate_image(world, z)
    assert img.block_mean(0) == 1.0
    img_neg = generate_image(world, -5.0 * g)
    assert img_neg.block_mean(0) == 0.0


def test_sigmoid_midpoint_block_mean():
    world = build_world(simple_config())
    g = world.direction_for("smile")
    # z orthogonal to the smile direction puts its raw score at exactly 0
    z = np.zeros(16)
    assert generate_image(world, z).block_mean(2) == pytest.approx(0.5, abs=1e-12)


def test_oracle_round_trip_noiseless():
    world = build_world(simple_config())
    for z in sample_latents(50, 16, seed=13):
        labels = oracle_label(world, generate_image(world, z), noise_seed=0)
        assert labels.discrete["style"] == (
            "dress" if world.direction_for("style") @ z > 0 else "tee"
        )
        assert labels.discrete["pose"] == (
            "front" if world.direction_for("pose") @ z > 0 else "back"
        )
        raw = world.direction_for("smile") @ z
        assert labels.continuous["smile"] == pytest.approx(1 / (1 + np.exp(-raw)), abs=1e-9)


def test_oracle_round_trip_linear_profile_clamps():
    cfg = simple_config(
        attributes=(AttributeSchema.continuous("level", -2.0, 2.0),),
        continuous_profile="linear",
    )
    world = build_world(cfg)
    g = world.direction_for("level")
    for scale in (-10.0, -1.0, 0.0, 1.5, 10.0):
        z = scale * g
        value = oracle_label(world, generate_image(world, z), 0).continuous["level"]
        raw = float(g @ z)  # intercept is the range midpoint 0
        assert value == pytest.approx(min(max(raw, -2.0), 2.0), abs=1e-9)


def test_multiclass_block_encodes_argmax():
    cfg = simple_config(
        attributes=(AttributeSchema.multiclass("hair", ("black", "brown", "blond")),),
    )
    world = build_world(cfg)
    cases = [(4.0 * world.direction_for("hair", cls), cls, mean)
             for cls, mean in zip(("black", "brown", "blond"), (0.0, 0.5, 1.0))]
    # z = 0 ties all three scores at 0: the tie goes to the lowest class
    cases.append((np.zeros(16), "black", 0.0))
    for z, cls, expected_mean in cases:
        img = generate_image(world, z)
        assert img.block_mean(0) == pytest.approx(expected_mean, abs=1e-12)
        labels = oracle_label(world, img, 0)
        assert labels.discrete["hair"] == cls


def test_oracle_noise_flip_rate():
    cfg = simple_config(
        attributes=(AttributeSchema.binary("style", "tee", "dress"),),
        label_noise=0.1,
    )
    world = build_world(cfg)
    latents = sample_latents(10000, 16, seed=21)
    flips = 0
    for i, z in enumerate(latents):
        img = generate_image(world, z)
        noisy = oracle_label(world, img, noise_seed=1000 + i)
        clean = oracle_label(world, img, noise_seed=1000 + i, label_noise=0.0)
        flips += noisy.discrete["style"] != clean.discrete["style"]
    assert 0.08 <= flips / 10000 <= 0.12


def test_oracle_noise_deterministic_given_seed():
    cfg = simple_config(label_noise=0.3)
    world = build_world(cfg)
    z = sample_latents(1, 16, seed=2)[0]
    img = generate_image(world, z)
    a = oracle_label(world, img, noise_seed=77)
    b = oracle_label(world, img, noise_seed=77)
    assert a.discrete == b.discrete and a.continuous == b.continuous


def test_oracle_rejects_wrong_layout():
    world = build_world(simple_config())
    stray = SyntheticImage(np.zeros((BLOCK_SIZE, BLOCK_SIZE * 2)))
    with pytest.raises(LayoutError):
        oracle_label(world, stray, 0)


def test_image_pixel_bounds_enforced():
    world = build_world(simple_config())
    for bad in (1.5, -0.5, np.nan):
        with pytest.raises(LayoutError, match="must lie in \\[0, 1\\]"):
            SyntheticImage(np.full((BLOCK_SIZE, BLOCK_SIZE), bad))
        pixels = render_batch(world, sample_latents(3, world.latent_dim, 0))
        pixels[1, 2, 5] = bad
        with pytest.raises(LayoutError, match="must lie in \\[0, 1\\]"):
            read_batch(world, pixels, [0, 1, 2])
    for width in (BLOCK_SIZE + 3, 0):
        with pytest.raises(LayoutError, match=f"got \\({BLOCK_SIZE}, {width}\\)"):
            SyntheticImage(np.zeros((BLOCK_SIZE, width)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_latents_are_rejected_before_rendering(bad):
    world = build_world(simple_config())
    Z = sample_latents(3, world.latent_dim, 0).copy()
    Z[1, 4] = bad
    for render in (lambda: generate_image(world, Z[1]), lambda: render_batch(world, Z),
                   lambda: _label_latents(world, Z, [0, 1, 2])):
        with pytest.raises(ValueError, match="NaN or Inf"):
            render()


def test_generate_image_takes_one_latent_vector():
    world = build_world(simple_config())
    with pytest.raises(ValueError, match="must be 1-D, got shape \\(1, 16\\)"):
        generate_image(world, np.zeros((1, 16)))
    with pytest.raises(DimensionMismatchError, match="expected 16, got 15"):
        generate_image(world, np.zeros(15))
    with pytest.raises(DimensionMismatchError, match="expected 16, got 15"):
        render_batch(world, np.zeros((2, 15)))
    with pytest.raises(ValueError, match="finite \\(n, dim\\) array"):
        render_batch(world, np.zeros(16))


def test_world_config_validation():
    with pytest.raises(WorldConfigError, match="dim must be at least 2, got 1"):
        simple_config(dim=1)
    with pytest.raises(WorldConfigError):
        WorldConfig(dim=16, attributes=(), seed=0)
    with pytest.raises(WorldConfigError):
        simple_config(label_noise=0.5)
    with pytest.raises(WorldConfigError):
        simple_config(continuous_profile="cubic")
    with pytest.raises(WorldConfigError):
        simple_config(
            attributes=(
                AttributeSchema.binary("dup", "a", "b"),
                AttributeSchema.binary("dup", "c", "d"),
            )
        )


@st.composite
def labelling_cases(draw):
    """A random world of every attribute kind, latents (some of them 0) and noise seeds."""
    kinds = draw(st.lists(st.sampled_from(["binary", "multiclass", "continuous"]),
                          min_size=1, max_size=4))
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == "binary":
            attrs.append(AttributeSchema.binary(f"a{i}", "n", "p"))
        elif kind == "multiclass":
            k = draw(st.integers(3, 4))
            attrs.append(AttributeSchema.multiclass(f"a{i}", [f"c{j}" for j in range(k)]))
        else:
            lo = draw(st.floats(-3.0, 2.0))
            attrs.append(AttributeSchema.continuous(f"a{i}", lo, lo + draw(st.floats(0.5, 4.0))))
    dim = max(2, len(direction_slots(tuple(attrs)))) + draw(st.integers(0, 3))
    world = build_world(WorldConfig(
        dim=dim, attributes=tuple(attrs), seed=draw(st.integers(0, 1000)),
        label_noise=draw(st.sampled_from([0.0, 0.3])),
        continuous_profile=draw(st.sampled_from(["linear", "sigmoid"]))))
    # sizes from empty to below, at and across the labelling block
    n = draw(st.sampled_from([0, 1, 2, 5, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((n, dim)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    Z[rng.random(n) < 0.1] = 0.0  # every binary score and multiclass block ties at 0
    return world, Z, rng.integers(2**62, size=n)


@settings(max_examples=40, deadline=None)
@given(labelling_cases())
def test_batched_render_and_read_equal_single_image_path(case):
    world, Z, seeds = case
    pixels = render_batch(world, Z)
    labels = read_batch(world, pixels, seeds)
    assert pixels.shape == (len(Z), BLOCK_SIZE, BLOCK_SIZE * (len(world.config.attributes) + 1))
    assert all(column.shape == (len(Z),) for column in labels.values())
    for i, z in enumerate(Z):
        img = generate_image(world, z)
        assert pixels[i].tobytes() == img.pixels.tobytes()
        one = oracle_label(world, img, int(seeds[i]))
        for attr in world.config.attributes:
            if attr.is_discrete:
                assert attr.classes[labels[attr.name][i]] == one.discrete[attr.name]
            else:
                assert labels[attr.name][i].tobytes() == np.float64(one.continuous[attr.name]).tobytes()


def _reference_labels(world, image, noise_seed):
    """The oracle read one block and one attribute at a time, as scalars."""
    p = world.config.label_noise
    rng = np.random.default_rng(noise_seed) if p > 0.0 else None
    labels = {}
    for i, attr in enumerate(world.config.attributes):
        mean = image.block_mean(i)
        if attr.kind == "continuous":
            labels[attr.name] = attr.lo + mean * (attr.hi - attr.lo)
            continue
        if attr.kind == "binary":
            idx = 1 if mean > 0.5 else 0
            if rng is not None and rng.random() < p:
                idx = 1 - idx
        else:
            k = len(attr.classes)
            idx = int(np.clip(round(mean * (k - 1)), 0, k - 1))
            if rng is not None and rng.random() < p:
                others = [j for j in range(k) if j != idx]
                idx = others[int(rng.integers(len(others)))]
        labels[attr.name] = attr.classes[idx]
    return labels


@settings(max_examples=40, deadline=None)
@given(labelling_cases())
def test_batched_read_matches_scalar_reference_noise_included(case):
    world, Z, seeds = case
    labels = read_batch(world, render_batch(world, Z), seeds)
    for i, z in enumerate(Z[:20]):
        expected = _reference_labels(world, generate_image(world, z), int(seeds[i]))
        for attr in world.config.attributes:
            if attr.is_discrete:
                assert attr.classes[labels[attr.name][i]] == expected[attr.name]
            else:
                assert labels[attr.name][i] == pytest.approx(expected[attr.name], rel=1e-15, abs=1e-15)


def _world_with_multiclass_at(positions, label_noise):
    attrs = [AttributeSchema.binary("b0", "n", "p"), AttributeSchema.binary("b1", "n", "p"),
             AttributeSchema.continuous("c", 0.0, 1.0)]
    for i in positions:
        attrs.insert(i, AttributeSchema.multiclass(f"m{i}", ["x", "y", "z"]))
    return build_world(WorldConfig(dim=10, attributes=tuple(attrs), label_noise=label_noise,
                                   continuous_profile="sigmoid", seed=len(attrs) + positions[0]))


@pytest.mark.parametrize("p", [0.3, 0.49])
@pytest.mark.parametrize("positions", [(0,), (2,), (3,), (0, 4)])  # first, between, last, twice
def test_noisy_read_matches_scalar_reference_on_every_row(positions, p):
    world = _world_with_multiclass_at(positions, p)
    rng = np.random.default_rng(positions[0])
    Z = rng.standard_normal((600, world.latent_dim))
    seeds = np.concatenate([rng.integers(2**32, size=300), rng.integers(2**32, 2**62, size=300)])
    labels = read_batch(world, render_batch(world, Z), seeds)
    clean = read_batch(world, render_batch(world, Z), seeds, label_noise=0.0)
    for i, z in enumerate(Z):
        expected = _reference_labels(world, generate_image(world, z), int(seeds[i]))
        for attr in world.config.attributes:
            if attr.is_discrete:
                assert attr.classes[labels[attr.name][i]] == expected[attr.name]
    # a resampled multiclass label is read by replaying the row's draws
    for i in positions:
        resampled = labels[f"m{i}"] != clean[f"m{i}"]
        assert resampled[:300].any() and resampled[300:].any()


@st.composite
def noisy_reads(draw):
    """A labelling case, or a world whose multiclass attribute comes first, between, last or
    twice; its latents and noise seeds, those of some images above 2**64."""
    if draw(st.booleans()):
        world, Z, seeds = draw(labelling_cases())
    else:
        world = _world_with_multiclass_at(draw(st.sampled_from([(0,), (2,), (3,), (0, 4)])),
                                          draw(st.sampled_from([0.3, 0.49])))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        Z = rng.standard_normal((draw(st.integers(1, 300)), world.latent_dim))
        seeds = rng.integers(2**62, size=len(Z))
    if draw(st.booleans()):  # every other seed moved above 2**64, beyond any uint64 array
        seeds = [int(s) + 2**64 * (i % 2) for i, s in enumerate(seeds)]
    return world, Z, seeds


@settings(max_examples=40, deadline=None)
@given(noisy_reads())
def test_noise_drawn_ahead_reads_as_noise_drawn_by_the_read(case):
    world, Z, seeds = case
    p = world.config.label_noise
    flips, others = draws = _noise_draws(world, seeds, p)
    discrete = [a for a in world.config.attributes if a.is_discrete]
    assert flips.shape == others.shape == (len(Z), len(discrete))
    for i, seed in enumerate(seeds):  # each image's draws from its own generator, in order
        rng = np.random.default_rng(seed)
        for j, attr in enumerate(discrete):
            flip = p > 0.0 and rng.random() < p
            assert flips[i, j] == flip
            assert others[i, j] == (rng.integers(len(attr.classes) - 1)
                                    if flip and attr.kind == "multiclass" else 0)
    means = _block_means(world, Z)
    ahead, drawn = _read_means(world, means, seeds, None, draws), _read_means(world, means, seeds,
                                                                             None)
    assert list(ahead) == list(drawn)
    for name, column in ahead.items():
        assert column.dtype == drawn[name].dtype and column.tobytes() == drawn[name].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40), st.integers(0, 5))
def test_array_seeding_equals_numpys_pcg64(seeds, m):
    seeds += [0, 1, 2**32 - 1, 2**32, 2**62, 2**63, 2**64 - 1]
    expected = [np.random.PCG64(seed).random_raw(m) for seed in seeds]
    raw = _pcg64_raw(np.array(seeds, dtype=np.uint64), m)
    assert raw.dtype == np.uint64 and raw.tobytes() == np.array(expected, dtype=np.uint64).tobytes()


def test_noisy_batch_with_seeds_beyond_uint64_reads_like_single_images():
    world = _world_with_multiclass_at((2,), 0.3)
    Z = sample_latents(40, world.latent_dim, 4)
    seeds = [2**64 + 7 * i for i in range(len(Z))]  # no uint64 array holds these
    labels = read_batch(world, render_batch(world, Z), seeds)
    for i, z in enumerate(Z):
        one = oracle_label(world, generate_image(world, z), seeds[i])
        assert all(a.classes[labels[a.name][i]] == one.discrete[a.name]
                   for a in world.config.attributes if a.is_discrete)


def test_read_rejects_a_noise_seed_count_unlike_the_image_count():
    world = build_world(simple_config(label_noise=0.3))
    pixels = render_batch(world, sample_latents(4, world.latent_dim, 0))
    for seeds in ([1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError, match="noise seeds"):
            read_batch(world, pixels, seeds)
    assert read_batch(world, pixels, [1, 2, 3, 4])["style"].shape == (4,)


def test_labelling_render_leaves_only_the_texture_out():
    # labelling reads the block means and builds no strips; the mean of a block of 64 equal
    # pixels differs from their value in the last bits, and labelling keeps that rounding
    world = _world_with_multiclass_at((2,), 0.3)
    for n in (0, 1, 7, 256, 4000):
        Z = sample_latents(max(n, 1), world.latent_dim, n)[:n]
        seeds = np.arange(n)
        full = render_batch(world, Z)
        blocks = full.reshape(n, BLOCK_SIZE, len(world.config.attributes) + 1, BLOCK_SIZE)[:, :, :-1]
        assert (blocks == _block_means(world, Z)[:, None, :, None]).all()
        for p in (None, 0.0):
            expected = read_batch(world, full, seeds, label_noise=p)
            labels = _label_latents(world, Z, seeds, label_noise=p)
            assert list(labels) == list(expected)
            for name, column in labels.items():
                assert column.dtype == expected[name].dtype
                assert column.tobytes() == expected[name].tobytes()
