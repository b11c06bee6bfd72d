"""Deterministic RNG stream derivation.

Every stochastic component draws from its own generator, derived from a
trial seed plus a small integer purpose tag (and optionally a frame or
step index). Streams derived this way are independent of each other and
of execution order, which is what makes trials reproducible and safe to
run in parallel.

`derive_seeds` and `derive_rngs` compute the same seeds and generator
states for whole arrays of keys at once. They repeat NumPy's SeedSequence
hash and PCG64 seeding in fixed-width integer arithmetic, so every value
is bit-identical to the scalar functions; the tests hold them to
NumPy's own reference vectors and to live `np.random`. The hash holds
each pool word as a uint32 vector over the rows, or as a Python int
while it is the same on every row (a purpose tag, say). `PCG64Streams`
draws from all those generators at once, normals included, by NumPy's
ziggurat, whose tables `_ziggurat` reads off NumPy on the first draw.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

# Purpose tags. Keep these stable: changing them reshuffles every result.
STREAM_RESPOND = 1
STREAM_GAZE = 2
STREAM_HEAD = 3
STREAM_LASER = 4
STREAM_FILTER = 5
STREAM_INIT = 6

# SeedSequence's constants (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe): a pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier as high and low 64-bit limbs.
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Return a generator for stream (seed, *keys)."""
    return np.random.default_rng([seed, *keys])


def derive_seed(seed: int, *keys: int) -> int:
    """Collapse (seed, *keys) into a single integer seed."""
    ss = np.random.SeedSequence([seed, *keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_seeds(seed, *keys) -> np.ndarray:
    """`derive_seed` over arrays: element i is derive_seed(seed[i], key[i],
    ...). Each argument is a non-negative int or a 1-D integer array; ints
    and length-1 arrays broadcast, and an empty array gives an empty
    result. Returns uint64."""
    return _state64([seed, *keys], 1)[:, 0]


def derive_rngs(seed, *keys) -> PCG64Streams:
    """`derive_rng` over arrays: the PCG64 states of derive_rng(seed[i],
    key[i], ...), with the arguments of `derive_seeds`."""
    # generate_state(4, uint64) is (state high, state low, seq high, seq
    # low); pcg64_set_seed sets inc = seq << 1 | 1, steps from state 0,
    # adds the initial state and steps again.
    state_hi, state_lo, seq_hi, seq_lo = _state64([seed, *keys], 4).T
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    streams = PCG64Streams(hi, lo, inc_hi, inc_lo)
    streams.step()
    return streams


def _state64(args: list, n_words: int) -> np.ndarray:
    """generate_state(n_words, np.uint64) for each row, read as NumPy does."""
    state = _seed_sequence_state(args, 2 * n_words).astype("<u4", copy=False)
    return state.view("<u8").astype(np.uint64, copy=False)


@dataclass
class PCG64Streams:
    """Many PCG64 generators at once: the 128-bit state and increment of
    each, as 64-bit limbs."""

    hi: np.ndarray
    lo: np.ndarray
    inc_hi: np.ndarray
    inc_lo: np.ndarray

    def step(self) -> None:
        """state = state * multiplier + inc, modulo 2**128."""
        hi = (
            _mul_hi64(self.lo, _PCG_MULT_LO)
            + self.lo * _PCG_MULT_HI
            + self.hi * _PCG_MULT_LO
        )
        lo = self.lo * _PCG_MULT_LO
        self.lo = lo + self.inc_lo
        self.hi = hi + self.inc_hi + (self.lo < lo)

    def next64(self) -> np.ndarray:
        """The next raw 64-bit output of every stream (XSL-RR)."""
        self.step()
        mixed = self.hi ^ self.lo
        rot = self.hi >> 58
        return (mixed >> rot) | (mixed << ((64 - rot) & 63))

    def random(self) -> np.ndarray:
        """One `Generator.random()` draw from every stream."""
        return (self.next64() >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> np.ndarray:
        """One `Generator.uniform(low, high)` draw from every stream."""
        return low + (high - low) * self.random()

    def normal(self, loc: float, scale: float) -> np.ndarray:
        """One `Generator.normal(loc, scale)` draw from every stream, by
        NumPy's 256-layer ziggurat (Marsaglia & Tsang 2000). About 1.5% of
        draws miss the layer's core rectangle: those streams go back to
        their state before the draw and a scalar NumPy generator makes
        the draw, tail and wedge sampling included."""
        wi, ki = _ziggurat()
        before = PCG64Streams(self.hi, self.lo, self.inc_hi, self.inc_lo)
        r = self.next64()
        layer = (r & 0xFF).astype(np.intp)
        rabs = (r >> 9) & 0x000FFFFFFFFFFFFF
        x = rabs.astype(np.float64) * wi[layer]
        np.negative(x, out=x, where=((r >> 8) & 1).astype(bool))
        out = loc + scale * x
        slow = np.flatnonzero(rabs >= ki[layer])
        if len(slow):
            rng = np.random.Generator(np.random.PCG64(0))
            for i, state in zip(slow.tolist(), before.take(slow).states()):
                rng.bit_generator.state = state
                out[i] = rng.normal(loc, scale)
                state = rng.bit_generator.state["state"]["state"]
                self.hi[i], self.lo[i] = state >> 64, state & 0xFFFFFFFFFFFFFFFF
        return out

    def take(self, index: np.ndarray) -> PCG64Streams:
        """The streams at `index`, as copies."""
        return PCG64Streams(
            self.hi[index], self.lo[index], self.inc_hi[index], self.inc_lo[index]
        )

    def states(self) -> Iterator[dict]:
        """Each stream as a `PCG64.state` value."""
        for hi, lo, inc_hi, inc_lo in zip(
            self.hi.tolist(), self.lo.tolist(), self.inc_hi.tolist(), self.inc_lo.tolist()
        ):
            yield {
                "bit_generator": "PCG64",
                "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """NumPy's ziggurat tables wi and ki, read off its generator. A PCG64
    whose next output is 512 + i draws layer i, sign 0 and rabs 1: wi[i].
    ki[i] = floor(2**52 * wi[i-1] / wi[i]), wi[-1] being wi[255], is
    NumPy's or one below, which only sends rabs == ki[i] to the scalar draw."""
    rng = np.random.Generator(np.random.PCG64(0))
    state = rng.bit_generator.state
    inverse = pow(_PCG_MULT_HI << 64 | _PCG_MULT_LO, -1, 2**128)
    wi = np.empty(256)
    for i in range(256):
        state["state"] = {"state": (511 + i) * inverse % 2**128, "inc": 1}
        rng.bit_generator.state = state
        wi[i] = rng.standard_normal()
    ki = np.floor(2.0**52 * np.roll(wi, 1) / wi).astype(np.uint64)
    ki[1] = 0  # as NumPy's
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def _mul_hi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _split(arg) -> tuple[list, list]:
    """The little-endian 32-bit words SeedSequence splits an argument into
    (Python ints for an int or a length-1 array, else uint32 vectors, zero
    where a row has fewer words), and its (word count, rows) groups, rows
    None when every row has all the words."""
    values = np.asarray(arg)
    if values.dtype.kind != "u" and (values < 0).any():
        raise ValueError("expected non-negative integer")
    if values.size == 1:
        value = int(values.item())
        words = [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]
        return words, [(len(words), None)]
    words = [(values & _MASK32).astype(np.uint32)]
    while (values := values >> 32).any():
        words.append((values & _MASK32).astype(np.uint32))
    if len(words) == 1 or words[-1].all():
        return words, [(len(words), None)]
    counts = np.ones(len(values), np.intp)
    for count, word in enumerate(words[1:], 2):
        counts[word != 0] = count
    return words, [(w, counts == w) for w in np.flatnonzero(np.bincount(counts))]


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The constant each successive hashmix call XORs in, and the one it
    multiplies by."""
    while True:
        xor, init = init, init * mult & _MASK32
        yield xor, init


def _wrap(x):
    """x modulo 2**32: masks an int; uint32 vectors wrap by themselves."""
    return x & _MASK32 if isinstance(x, int) else x


def _hashmix(value, xor: int, mult: int):
    value = _wrap((value ^ xor) * mult)
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _wrap(_wrap(x * _MIX_MULT_L) - _wrap(y * _MIX_MULT_R))
    return result ^ (result >> _XSHIFT)


def _mix_entropy(entropy: list) -> list:
    """SeedSequence.mix_entropy on a list of words, each a Python int (the
    same on every row) or a uint32 vector: the pool's four words."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    padded = entropy[:_POOL_SIZE] + [0] * (_POOL_SIZE - len(entropy))
    pool = [_hashmix(word, *next(consts)) for word in padded]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(consts)))
    return pool


def _seed_sequence_state(args: list, n_words: int) -> np.ndarray:
    """SeedSequence([a[i] for a in args]).generate_state(n_words) for each
    i, as an (n, n_words) uint32 array. Rows whose integers split into
    different numbers of words are mixed separately. An empty array gives
    no rows, whatever the other arguments."""
    split = [_split(arg) for arg in args]
    lengths = {len(words[0]) for words, _ in split if not isinstance(words[0], int)}
    n = 0 if 0 in lengths else max(lengths, default=1)
    state = np.empty((n, n_words), np.uint32)
    if not n:
        return state
    for group in itertools.product(*(widths for _, widths in split)):
        masks = [mask for _, mask in group if mask is not None]
        rows = np.logical_and.reduce(masks) if masks else slice(None)
        pool = _mix_entropy([
            word if isinstance(word, int) else word[rows]
            for (words, _), (width, _) in zip(split, group)
            for word in words[:width]
        ])
        consts = _hash_constants(_INIT_B, _MULT_B)
        for j, (xor, mult) in zip(range(n_words), consts):
            state[rows, j] = _hashmix(pool[j % _POOL_SIZE], xor, mult)
    return state
