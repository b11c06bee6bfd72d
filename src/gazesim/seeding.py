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
NumPy's own reference vectors and to live `np.random`. `PCG64Streams`
draws from all those generators at once, normals included.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
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

# NumPy's ziggurat tables wi_double (float64) and ki_double (uint64), 256
# layers each; scripts/ziggurat_tables.py extracts them from NumPy.
_ZIGGURAT = np.fromfile(Path(__file__).with_name("ziggurat_tables.bin"), "<u8")
_ZIGGURAT_WI = _ZIGGURAT[:256].view("<f8")
_ZIGGURAT_KI = _ZIGGURAT[256:]


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
    words = _seed_sequence_state([seed, *keys], 2).astype(np.uint64)
    return words[:, 0] | (words[:, 1] << 32)


def derive_rngs(seed, *keys) -> PCG64Streams:
    """`derive_rng` over arrays: the PCG64 states of derive_rng(seed[i],
    key[i], ...), with the arguments of `derive_seeds`."""
    words = _seed_sequence_state([seed, *keys], 8).astype(np.uint64)
    # generate_state(4, uint64) is (state high, state low, seq high, seq
    # low); pcg64_set_seed sets inc = seq << 1 | 1, steps from state 0,
    # adds the initial state and steps again.
    state_hi, state_lo, seq_hi, seq_lo = (
        words[:, i] | (words[:, i + 1] << 32) for i in range(0, 8, 2)
    )
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    streams = PCG64Streams(hi, lo, inc_hi, inc_lo)
    streams.step()
    return streams


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
        before = PCG64Streams(self.hi, self.lo, self.inc_hi, self.inc_lo)
        r = self.next64()
        layer = (r & 0xFF).astype(np.intp)
        rabs = (r >> 9) & 0x000FFFFFFFFFFFFF
        x = rabs.astype(np.float64) * _ZIGGURAT_WI[layer]
        np.negative(x, out=x, where=((r >> 8) & 1).astype(bool))
        out = loc + scale * x
        slow = np.flatnonzero(rabs >= _ZIGGURAT_KI[layer])
        if len(slow):
            bit_generator = np.random.PCG64(0)
            rng = np.random.Generator(bit_generator)
            for i, state in zip(slow.tolist(), before.take(slow).states()):
                bit_generator.state = state
                out[i] = rng.normal(loc, scale)
                state = bit_generator.state["state"]["state"]
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


def _mul_hi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The little-endian 32-bit words SeedSequence splits each integer
    into, zero-padded to the widest, and how many words each has."""
    if (values < 0).any():
        raise ValueError("expected non-negative integer")
    words = []
    counts = np.ones(len(values), np.int64)
    while True:
        words.append((values & _MASK32).astype(np.uint32))
        values = values >> 32
        more = values != 0
        if not more.any():
            return np.stack(words, axis=1), counts
        counts += more


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant each of `count` successive hashmix calls XORs in,
    and the one it multiplies by."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy on each row of an (n, L) uint32 entropy
    array: the (n, 4) pools. The hash constant advances once per hashmix
    call in a fixed order, so each loop of the scalar code becomes one
    array operation."""
    n, length = entropy.shape
    extra = max(length - _POOL_SIZE, 0)
    xor, mult = _hash_constants(
        _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * extra
    )
    pool = np.zeros((n, _POOL_SIZE), np.uint32)
    pool[:, : min(length, _POOL_SIZE)] = entropy[:, :_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[:, src : src + 1], xor[k : k + 3], mult[k : k + 3])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        k += 3
    for src in range(_POOL_SIZE, length):
        hashed = _hashmix(
            entropy[:, src : src + 1],
            xor[k : k + _POOL_SIZE],
            mult[k : k + _POOL_SIZE],
        )
        pool = _mix(pool, hashed)
        k += _POOL_SIZE
    return pool


def _seed_sequence_state(args: list, n_words: int) -> np.ndarray:
    """SeedSequence([a[i] for a in args]).generate_state(n_words) for each
    i, as an (n, n_words) uint32 array. Rows whose integers split into
    different numbers of words are mixed separately. An empty array gives
    no rows, whatever the other arguments."""
    split = [_words(np.atleast_1d(np.asarray(arg))) for arg in args]
    lengths = [len(words) for words, _ in split]
    n = max(lengths) if min(lengths) else 0
    xor, mult = _hash_constants(_INIT_B, _MULT_B, n_words)
    state = np.empty((n, n_words), np.uint32)
    for widths in itertools.product(*(np.unique(counts) for _, counts in split)):
        rows = np.ones(n, bool)
        for (_, counts), width in zip(split, widths):
            rows &= counts == width
        m = int(rows.sum())
        if not m:
            continue
        columns = []
        for (words, _), width in zip(split, widths):
            if len(words) > 1:
                words = words[rows]
            columns.append(np.broadcast_to(words[:, :width], (m, width)))
        pool = _mix_entropy(np.concatenate(columns, axis=1))
        state[rows] = _hashmix(pool[:, np.arange(n_words) % _POOL_SIZE], xor, mult)
    return state
