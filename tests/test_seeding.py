import numpy as np
import pytest

from gazesim.seeding import (
    _PCG_MULT_HI,
    _PCG_MULT_LO,
    _seed_sequence_state,
    _ziggurat,
    PCG64Streams,
    STREAM_FILTER,
    STREAM_GAZE,
    STREAM_HEAD,
    STREAM_INIT,
    STREAM_LASER,
    STREAM_RESPOND,
    derive_rng,
    derive_rngs,
    derive_seed,
    derive_seeds,
)


def test_stream_tags_are_distinct():
    tags = {STREAM_RESPOND, STREAM_GAZE, STREAM_HEAD, STREAM_LASER, STREAM_FILTER, STREAM_INIT}
    assert len(tags) == 6


def test_derive_rng_deterministic():
    a = derive_rng(42, STREAM_HEAD, 7).standard_normal(5)
    b = derive_rng(42, STREAM_HEAD, 7).standard_normal(5)
    assert np.array_equal(a, b)


def test_derive_rng_streams_differ():
    a = derive_rng(42, STREAM_HEAD, 7).standard_normal(5)
    b = derive_rng(42, STREAM_LASER, 7).standard_normal(5)
    c = derive_rng(42, STREAM_HEAD, 8).standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_int():
    s1 = derive_seed(42, 1, 2, 3)
    s2 = derive_seed(42, 1, 2, 3)
    assert isinstance(s1, int)
    assert s1 == s2
    assert s1 != derive_seed(42, 1, 2, 4)
    assert s1 != derive_seed(43, 1, 2, 3)


def test_derived_seed_feeds_rng():
    s = derive_seed(0, 5)
    x = derive_rng(s, 0).random()
    y = derive_rng(s, 0).random()
    assert x == y


def test_key_order_matters():
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


# SeedSequence reference rows from NumPy's random/tests/test_seed_sequence.py
# (test_reference_data): entropy words, generate_state(4) and
# generate_state(2, uint64).
SEED_SEQUENCE_INPUTS = [
    [3735928559, 195939070, 229505742, 305419896],
    [3668361503, 4165561550, 1661411377, 3634257570],
    [164546577, 4166754639, 1765190214, 1303880213],
    [446610472, 3941463886, 522937693, 1882353782],
    [1864922766, 1719732118, 3882010307, 1776744564],
    [4141682960, 3310988675, 553637289, 902896340],
    [1134851934, 2352871630, 3699409824, 2648159817],
    [1240956131, 3107113773, 1283198141, 1924506131],
    [2669565031, 579818610, 3042504477, 2774880435],
    [2766103236, 2883057919, 4029656435, 862374500],
]
SEED_SEQUENCE_OUTPUTS = [
    [3914649087, 576849849, 3593928901, 2229911004],
    [2240804226, 3691353228, 1365957195, 2654016646],
    [3562296087, 3191708229, 1147942216, 3726991905],
    [1403443605, 3591372999, 1291086759, 441919183],
    [1086200464, 2191331643, 560336446, 3658716651],
    [3249937430, 2346751812, 847844327, 2996632307],
    [2584285912, 4034195531, 3523502488, 169742686],
    [959045797, 3875435559, 1886309314, 359682705],
    [3978441347, 432478529, 3223635119, 138903045],
    [296367413, 4262059219, 13109864, 3283683422],
]
SEED_SEQUENCE_OUTPUTS64 = [
    [2477551240072187391, 9577394838764454085],
    [15854241394484835714, 11398914698975566411],
    [13708282465491374871, 16007308345579681096],
    [15424829579845884309, 1898028439751125927],
    [9411697742461147792, 15714068361935982142],
    [10079222287618677782, 12870437757549876199],
    [17326737873898640088, 729039288628699544],
    [16644868984619524261, 1544825456798124994],
    [1857481142255628931, 596584038813451439],
    [18305404959516669237, 14103312907920476776],
]
# The first raw outputs of NumPy's random/tests/data/pcg64-testset-1.csv.
PCG64_TESTSET_SEED = 0xDEADBEAF
PCG64_TESTSET_OUTPUTS = [
    0x60D24054E17A0698, 0xD5E79D89856E4F12, 0xD254972FE64BD782, 0xF1E3072A53C72571,
    0xD7C1D7393D4115C9, 0x77B75928B763E1E2, 0xEE6DEE05190F7909, 0x15F7B1C51D7FA319,
    0x27E44105F26AC2D7, 0x0CC0D88B29E5B415, 0xE07B1A90C685E361, 0xD2E430240DE95E38,
    0x3260BCA9A24CA9DA, 0x9B3CF2E92385ADB7, 0x30B5514548271976, 0xA3A1FA16C124FAF9,
]


class TestBatchedSeeding:
    def test_seed_sequence_reference_rows(self):
        words = [[np.array([w]) for w in row] for row in SEED_SEQUENCE_INPUTS]
        for row, expected, expected64 in zip(
            words, SEED_SEQUENCE_OUTPUTS, SEED_SEQUENCE_OUTPUTS64
        ):
            assert _seed_sequence_state(row, 4)[0].tolist() == expected
            assert _seed_sequence_state(row, 4).view(np.uint64)[0].tolist() == expected64
            assert derive_seeds(*row).tolist() == [expected64[0]]
        # All ten rows as one batch: the columns broadcast element-wise.
        columns = [np.array(col) for col in zip(*SEED_SEQUENCE_INPUTS)]
        assert _seed_sequence_state(columns, 4).tolist() == SEED_SEQUENCE_OUTPUTS

    def test_pcg64_testset(self):
        streams = derive_rngs(PCG64_TESTSET_SEED)
        assert [int(streams.next64()[0]) for _ in PCG64_TESTSET_OUTPUTS] == (
            PCG64_TESTSET_OUTPUTS
        )

    def test_matches_live_numpy_on_one_and_two_word_seeds(self):
        # 1e5 keys, a fifth of them below 2**32 so their entropy has one
        # word, with decision cursors 0-2 as the event engine derives them.
        rng = np.random.default_rng(2024)
        seeds = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        seeds[::5] >>= 32
        seeds[:3] = [0, 2**32 - 1, 2**32]
        cursors = np.arange(len(seeds)) % 3
        derived = derive_seeds(seeds, STREAM_RESPOND, cursors)
        expected = [
            derive_seed(s, STREAM_RESPOND, c)
            for s, c in zip(seeds.tolist(), cursors.tolist())
        ]
        assert derived.tolist() == expected
        # The generators, with a random() then a uniform() draw as
        # `respond` makes.
        streams = derive_rngs(seeds)
        first = streams.random().tolist()
        second = streams.uniform(0.5, 3.5).tolist()
        for key, a, b in zip(seeds.tolist(), first, second):
            live = derive_rng(key)
            assert (live.random(), live.uniform(0.5, 3.5)) == (a, b)

    def test_states_set_a_generator_on_the_same_stream(self):
        keys = np.array([0, 7, 2**32 + 5, 2**64 - 1], dtype=np.uint64)
        bit_generator = np.random.PCG64(0)
        for key, state in zip(keys.tolist(), derive_rngs(keys).states()):
            bit_generator.state = state
            assert state == derive_rng(key).bit_generator.state
            assert np.random.Generator(bit_generator).normal(2.51, 0.36) == (
                derive_rng(key).normal(2.51, 0.36)
            )

    def test_normal_matches_live_numpy(self):
        # 1000 streams, half of them on 1-word seeds, 1000 draws each: 1e6
        # draws, about 15k of them missing the ziggurat's core rectangle.
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**64, 1000, dtype=np.uint64)
        keys[::2] >>= 32
        loc, scale = 2.51, 0.36
        streams = derive_rngs(keys, STREAM_GAZE)
        draws = np.empty((len(keys), 1000))
        every = np.arange(len(keys))
        slow = 0
        ki = _ziggurat()[1]
        for j in range(1000):
            r = streams.take(every).next64()
            slow += int((((r >> 9) & 0x000FFFFFFFFFFFFF) >= ki[r & 0xFF]).sum())
            draws[:, j] = streams.normal(loc, scale)
        assert slow >= 10_000
        for i, key in enumerate(keys.tolist()):
            live = derive_rng(key, STREAM_GAZE)
            assert (live.normal(loc, scale, size=1000) == draws[i]).all()
            state = live.bit_generator.state["state"]["state"]
            assert (int(streams.hi[i]) << 64 | int(streams.lo[i])) == state

    def test_normal_at_every_layer_bound(self):
        # Every layer, both signs, and rabs at 1 and on each side of the
        # fast path's bound ki: a bound one too high or too low sends
        # some draw down the wrong path, and the extra uniform NumPy
        # draws on its slow path shows in the post-draw state.
        wi, ki = _ziggurat()
        cases = [
            (layer, sign, rabs)
            for layer in range(256)
            for sign in (0, 1)
            for rabs in sorted({1, int(ki[layer]) - 1, int(ki[layer])})
            if 0 <= rabs < 2**52
        ]
        outputs = [rabs << 9 | sign << 8 | layer for layer, sign, rabs in cases]
        # One LCG step (increment 1) before the state whose high limb is
        # 0 and low limb r: its XSL-RR output is r.
        inverse = pow(_PCG_MULT_HI << 64 | _PCG_MULT_LO, -1, 2**128)
        states = [(r - 1) * inverse % 2**128 for r in outputs]
        streams = PCG64Streams(
            np.array([state >> 64 for state in states], np.uint64),
            np.array([state & (2**64 - 1) for state in states], np.uint64),
            np.zeros(len(states), np.uint64),
            np.ones(len(states), np.uint64),
        )
        every = np.arange(len(cases))
        assert streams.take(every).next64().tolist() == outputs
        before = list(streams.take(every).states())
        draws = streams.normal(0.0, 1.0)
        bit_generator = np.random.PCG64(0)
        live = np.random.Generator(bit_generator)
        for i, (case, state) in enumerate(zip(cases, before)):
            bit_generator.state = state
            assert live.normal(0.0, 1.0) == draws[i], case
            after = int(streams.hi[i]) << 64 | int(streams.lo[i])
            assert bit_generator.state["state"]["state"] == after, case
            layer, sign, rabs = case
            if rabs == 1:
                assert draws[i] == (-wi[layer] if sign else wi[layer]), case

    @pytest.mark.parametrize("base", [0, 42, 2**32, 2**64 + 1, 2**128 + 3])
    def test_wide_and_zero_base_seeds(self, base):
        # More than four entropy words take SeedSequence's extra mixing rounds.
        reps = np.arange(50)
        assert derive_seeds(base, 3, 2, reps).tolist() == [
            derive_seed(base, 3, 2, rep) for rep in range(50)
        ]
        streams = derive_rngs(base, 1, reps)
        draws = streams.random()
        assert draws.tolist() == [derive_rng(base, 1, rep).random() for rep in range(50)]

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_key_array_gives_no_rows(self, empty_first):
        # An int key has one entropy word; it must not make a row of its own.
        keys = (np.array([], np.uint64), 2)
        if not empty_first:
            keys = keys[::-1]
        assert derive_seeds(*keys).shape == (0,)
        streams = derive_rngs(*keys)
        assert streams.hi.shape == streams.inc_lo.shape == (0,)
        assert streams.normal(0.0, 1.0).shape == (0,)

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_and_non_empty_arrays_give_no_rows(self, empty_first):
        # An empty array gives no rows, whatever the length of the others.
        keys = (np.array([], np.uint64), np.arange(3))
        if not empty_first:
            keys = keys[::-1]
        assert derive_seeds(*keys).shape == (0,)
        streams = derive_rngs(*keys)
        assert streams.hi.shape == streams.inc_lo.shape == (0,)

    def test_seeds_beyond_64_bits_in_an_array(self):
        keys = np.array([2**70 + 5, 3, 2**64], dtype=object)
        assert derive_seeds(keys, STREAM_GAZE).tolist() == [
            derive_seed(k, STREAM_GAZE) for k in keys.tolist()
        ]

    def test_negative_key_rejected_as_numpy_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds(-1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(-1, 2)


def _live_state(row: list[int], n_words: int) -> list[int]:
    return np.random.SeedSequence(row).generate_state(n_words).tolist()


class TestWordGroups:
    """The hash splits each argument into 32-bit words and mixes rows with
    different word counts separately; each case here is checked against
    live `np.random.SeedSequence`."""

    def test_two_arguments_straddling_two_to_the_32(self):
        # Seeds and keys each below and above 2**32, crossed: four width
        # groups in one call, plus a constant tag between them.
        seeds = np.array([7, 2**32 + 7, 2**32 - 1, 2**40, 0, 2**64 - 1], np.uint64)
        keys = np.array([3, 2**33, 2**33 + 1, 9, 2**32, 1], np.uint64)
        rows = [[s, STREAM_GAZE, k] for s, k in zip(seeds.tolist(), keys.tolist())]
        assert {(s >= 2**32, k >= 2**32) for s, _, k in rows} == {
            (False, False), (False, True), (True, False), (True, True)
        }
        assert _seed_sequence_state([seeds, STREAM_GAZE, keys], 8).tolist() == [
            _live_state(row, 8) for row in rows
        ]
        assert derive_seeds(seeds, STREAM_GAZE, keys).tolist() == [
            int(np.random.SeedSequence(row).generate_state(1, np.uint64)[0])
            for row in rows
        ]
        streams = derive_rngs(seeds, STREAM_GAZE, keys)
        assert streams.random().tolist() == [
            np.random.default_rng(row).random() for row in rows
        ]

    def test_array_keys_beyond_four_words(self):
        # Up to six words from the key alone, with rows of every width from
        # one to six: the extra entropy words take the later mixing rounds.
        keys = np.array([2**160 + 3, 5, 2**96 - 1, 2**32, 2**100, 2**128 + 1], dtype=object)
        seeds = np.array([11, 2**35, 12, 2**36, 13, 14], np.uint64)
        rows = [[s, k, STREAM_RESPOND] for s, k in zip(seeds.tolist(), keys.tolist())]
        assert _seed_sequence_state([seeds, keys, STREAM_RESPOND], 4).tolist() == [
            _live_state(row, 4) for row in rows
        ]

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 1])
    def test_one_row_batch(self, seed):
        # One row as length-1 arrays, as plain ints and mixed: all the same.
        row = [seed, STREAM_HEAD, 2**33 + 4]
        expected = [_live_state(row, 8)]
        as_arrays = [np.array([v], dtype=object if v >= 2**64 else np.uint64) for v in row]
        assert _seed_sequence_state(as_arrays, 8).tolist() == expected
        assert _seed_sequence_state(row, 8).tolist() == expected
        assert _seed_sequence_state([as_arrays[0], *row[1:]], 8).tolist() == expected
        assert derive_rngs(*as_arrays).random().tolist() == [
            np.random.default_rng(row).random()
        ]
