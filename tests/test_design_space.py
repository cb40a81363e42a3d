import math

import numpy as np
import pytest

from fleetopt.design_space import (
    DesignPoint,
    DesignSpace,
    DimensionMismatchError,
    InvalidDesignError,
    SpaceTooLargeError,
    StageChoice,
    crossover,
    decode_rows,
    default_space,
    design_codes,
    encode,
    encode_rows,
    enumerate_all,
    mutate,
    reduced_space,
    sample_rows,
    sample_uniform,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def all_min(space):
    return (0,) * space.encoding_width


def all_max(space):
    return tuple(len(axis) - 1 for axis in space._axes())


WITH_SINGLETONS = DesignSpace(2, (1,), (0.5, 1.0, 2.0), (3, 5, 7, 9, 11), (8,))


def in_space(space, x):
    # design_at is the one validating entry point: it raises on a bad index list
    return space.contains(space.design_at(x))


def test_reduced_space_has_128_designs():
    space = reduced_space()
    assert space.cardinality == 128
    assert len(enumerate_all(space)) == 128


def test_default_space_cardinality():
    space = default_space()
    assert space.cardinality == (4 * 4 * 3) ** 4 * 4


def test_singleton_space_has_one_design():
    space = DesignSpace(1, (2,), (1.0,), (3,), (8,))
    assert space.cardinality == 1
    assert len(enumerate_all(space)) == 1
    # the only design, every draw
    for seed in range(5):
        assert sample_uniform(space, rng(seed)) == enumerate_all(space)[0]


def test_choice_lists_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        DesignSpace(1, (2, 2), (1.0,), (3,), (8,))
    with pytest.raises(ValueError):
        DesignSpace(1, (2, 1), (1.0,), (3,), (8,))


def test_kernels_must_be_odd():
    with pytest.raises(ValueError):
        DesignSpace(1, (1,), (1.0,), (4,), (8,))


def test_enumerate_respects_limit():
    with pytest.raises(SpaceTooLargeError):
        enumerate_all(reduced_space(), limit=100)


def test_enumerate_sorted_and_unique(reduced):
    designs = enumerate_all(reduced)
    assert designs == sorted(designs)
    assert len(set(designs)) == len(designs)


def test_encode_all_min_is_zeros(reduced):
    assert np.array_equal(encode(all_min(reduced), reduced), np.zeros(7))


def test_encode_all_max_is_ones(reduced):
    assert np.array_equal(encode(all_max(reduced), reduced), np.ones(7))


def test_encode_two_choice_bits_second_is_one(reduced):
    x = all_min(reduced)[:-1] + (1,)
    assert encode(x, reduced)[-1] == 1.0


def test_indices_of_rejects_foreign_stage_choice(reduced):
    bad = DesignPoint(
        stages=(StageChoice(3, 0.5, 3), StageChoice(1, 0.5, 3)), bits=8
    )
    with pytest.raises(InvalidDesignError):
        reduced.indices_of(bad)


@pytest.mark.parametrize(
    "indices, error",
    [
        ([0] * 6, DimensionMismatchError),
        ([0] * 8, DimensionMismatchError),
        ([0, 0, 0, 0, 0, 0, 2], InvalidDesignError),
        ([0, 0, 0, -1, 0, 0, 0], InvalidDesignError),
    ],
    ids=["too-short", "too-long", "index-past-end", "negative-index"],
)
def test_design_at_validates_index_lists(reduced, indices, error):
    with pytest.raises(error):
        reduced.design_at(indices)


def test_roundtrip_exhaustive_on_reduced(reduced):
    X = enumerate_all(reduced)
    assert [tuple(x) for x in decode_rows(encode_rows(X, reduced), reduced).tolist()] == X


def test_roundtrip_sampled_on_default(dspace):
    X = sample_rows(dspace, rng(42), 100)
    assert np.array_equal(decode_rows(encode_rows(X, dspace), dspace), X)


def test_decode_rounds_half_up(reduced):
    # 2 choices: 0.49 snaps down, 0.51 up, 0.5 exactly rounds up
    V = np.zeros((3, 7))
    V[:, -1] = [0.49, 0.51, 0.5]
    assert decode_rows(V, reduced)[:, -1].tolist() == [0, 1, 1]


def test_decode_clamps_out_of_range(reduced):
    v = np.zeros(7)
    v[0] = -0.2
    D = decode_rows([v, np.full(7, 1.7)], reduced)
    assert [tuple(x) for x in D.tolist()] == [all_min(reduced), all_max(reduced)]


def test_decode_rejects_wrong_length(reduced):
    with pytest.raises(DimensionMismatchError):
        decode_rows([np.zeros(6)], reduced)


def test_decode_total_on_arbitrary_reals(reduced):
    for x in decode_rows(rng(9).normal(0.0, 3.0, size=(200, 7)), reduced).tolist():
        assert in_space(reduced, tuple(x))


@pytest.mark.parametrize(
    "space", [default_space(), WITH_SINGLETONS], ids=["default", "with-singleton-axes"],
)
def test_row_forms_match_one_row_forms(space):
    r = rng(13)
    width = space.encoding_width
    steps = [len(axis) - 1 for axis in space._axes()]
    V = r.uniform(-0.5, 1.5, size=(1000, width))
    # a third of the rows sit on half-cell boundaries, the rounding edge
    V[:334] = (r.integers(0, 4, size=(334, width)) + 0.5) / np.maximum(steps, 1)
    D = decode_rows(V, space)
    assert D.shape == (1000, width)
    # a row decodes alike alone (infer_design's one row) and in a batch
    assert D.tolist() == [decode_rows([v], space)[0].tolist() for v in V]
    # the rule on Python floats, one value at a time: clamp, then round half up
    assert D.tolist() == [
        [math.floor(min(max(float(v), 0.0), 1.0) * n + 0.5) for v, n in zip(row, steps)]
        for row in V
    ]
    designs = [sample_uniform(space, r) for _ in range(1000)]
    E = encode_rows(designs, space)
    assert np.array_equal(E, np.stack([encode(x, space) for x in designs]))
    assert E.tolist() == [[0.5 if n == 0 else k / n for k, n in zip(x, steps)] for x in designs]


def test_row_forms_reject_bad_input(reduced):
    V = np.full((3, 7), 0.5)
    for bad in (np.nan, np.inf):
        V[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decode_rows(V, reduced)
    for wrong in (np.zeros((3, 6)), np.zeros((3, 8)), np.zeros(7)):
        with pytest.raises(DimensionMismatchError):
            decode_rows(wrong, reduced)
        with pytest.raises(DimensionMismatchError):
            encode_rows(wrong.astype(int), reduced)
    with pytest.raises(DimensionMismatchError):
        encode((0,) * 6, reduced)
    with pytest.raises(ValueError, match="non-finite"):
        decode_rows([np.full(7, np.nan)], reduced)


def test_sample_two_draws_differ_on_default(dspace):
    r = rng(42)
    assert sample_uniform(dspace, r) != sample_uniform(dspace, r)


def test_sample_is_uniform_per_dimension(reduced):
    r = rng(1)
    counts = {}
    n = 10_000
    for _ in range(n):
        x = sample_uniform(reduced, r)
        counts[("depth", x[0])] = counts.get(("depth", x[0]), 0) + 1
        counts[("bits", x[-1])] = counts.get(("bits", x[-1]), 0) + 1
    for k in range(len(reduced.depth_choices)):
        assert abs(counts[("depth", k)] / n - 0.5) < 0.05
    for k in range(len(reduced.bits_choices)):
        assert abs(counts[("bits", k)] / n - 0.5) < 0.05


def test_sample_deterministic_per_seed(dspace):
    a = [sample_uniform(dspace, rng(7)) for _ in range(20)]
    b = [sample_uniform(dspace, rng(7)) for _ in range(20)]
    assert a == b


@pytest.mark.parametrize(
    "space", [default_space(), reduced_space(), WITH_SINGLETONS],
    ids=["default", "reduced", "with-singleton-axes"],
)
def test_sample_rows_are_sequential_sample_uniform_draws(space):
    # training sets and probes moved to sample_rows; their designs must not move
    for seed in range(8):
        for n in (1, 2, 33, 500):
            a, b = rng(seed), rng(seed)
            X = sample_rows(space, a, n)
            assert X.shape == (n, space.encoding_width)
            assert X.tolist() == [list(sample_uniform(space, b)) for _ in range(n)]
            assert a.bit_generator.state == b.bit_generator.state


def test_mutate_rate_zero_is_identity(reduced):
    X = np.array([all_max(reduced), all_min(reduced)] * 5)
    assert np.array_equal(mutate(X, 0.0, reduced, rng(0)), X)


def test_mutate_stays_in_space(reduced):
    r = rng(3)
    X = np.array([all_min(reduced)] * 8)
    for _ in range(100):
        X = mutate(X, 1.0, reduced, r)
        assert all(in_space(reduced, x) for x in X.tolist())


def test_mutate_expected_change_count(dspace):
    # a resampled axis always moves and a singleton axis never does, so
    # E[changed fields] = rate * (non-singleton axes) exactly
    r = rng(11)
    for space in (dspace, WITH_SINGLETONS):
        movable = np.array([len(axis) > 1 for axis in space._axes()])
        base = np.array([all_min(space)] * 10_000)
        changed = mutate(base, 0.1, space, r) != base
        expected = 0.1 * movable.sum()
        assert abs(changed.sum(axis=1).mean() - expected) / expected < 0.05
        assert not changed[:, ~movable].any()
        everything = mutate(base, 1.0, space, r) != base
        assert everything[:, movable].all() and not everything[:, ~movable].any()


def test_mutate_deterministic_per_seed(reduced):
    X = np.array([all_min(reduced)] * 10)
    a = mutate(X, 0.5, reduced, rng(2))
    b = mutate(X, 0.5, reduced, rng(2))
    assert np.array_equal(a, b)


def test_crossover_of_identical_parents(reduced):
    X = np.array([all_max(reduced), all_min(reduced)])
    assert np.array_equal(crossover(X, X, rng(0)), X)


def test_crossover_fields_come_from_parents(reduced):
    r = rng(5)
    A, B = sample_rows(reduced, r, 50), sample_rows(reduced, r, 50)
    child = crossover(A, B, r)
    assert ((child == A) | (child == B)).all()


def test_crossover_parent_frequency_balanced(reduced):
    A = np.array([all_min(reduced)] * 10_000)
    B = np.array([all_max(reduced)] * 10_000)
    child = crossover(A, B, rng(13))
    assert abs((child == B).mean() - 0.5) < 0.05


def test_indices_of_rejects_design_of_another_space(reduced, dspace):
    with pytest.raises(InvalidDesignError):
        reduced.indices_of(dspace.design_at(all_min(dspace)))


def test_indices_roundtrip(reduced):
    for x in enumerate_all(reduced):
        assert reduced.indices_of(reduced.design_at(x)) == x


# --- design codes ---------------------------------------------------------------


def test_design_codes_number_designs_in_enumeration_order(reduced, dspace):
    assert design_codes(enumerate_all(reduced), reduced).tolist() == list(range(128))
    # injective on a default-space sample: each code unravels to its own row
    X = sample_rows(dspace, rng(5), 10_000)
    codes = design_codes(X, dspace)
    assert codes.dtype == np.int64 and codes.shape == (10_000,)
    sizes = [len(axis) for axis in dspace._axes()]
    assert np.array_equal(np.stack(np.unravel_index(codes, sizes), axis=-1), X)
    assert len(set(codes.tolist())) == len({tuple(row) for row in X.tolist()})
    # a stack of index matrices gets a code per row
    assert np.array_equal(design_codes(X.reshape(100, 100, -1), dspace), codes.reshape(100, 100))


def test_a_space_holds_fewer_than_2_63_designs():
    # 8 cells per stage over 20 stages: 2**60 stage choices
    cells = dict(num_stages=20, depth_choices=(1, 2), width_choices=(0.5, 1.0),
                 kernel_choices=(3, 5))
    widest = DesignSpace(**cells, bits_choices=(4, 8, 16, 32))
    assert widest.cardinality == 2**62
    last = [len(axis) - 1 for axis in widest._axes()]
    assert design_codes([last], widest).tolist() == [2**62 - 1]
    with pytest.raises(ValueError, match="fewer than 2\\*\\*63 designs"):
        DesignSpace(**cells, bits_choices=tuple(range(1, 9)))
    with pytest.raises(ValueError, match="fewer than 2\\*\\*63 designs"):
        DesignSpace(12, *(getattr(default_space(), f"{axis}_choices")
                          for axis in ("depth", "width", "kernel", "bits")))
