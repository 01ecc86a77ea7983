"""Named deterministic RNG substreams.

Every random draw in a run descends from one 64-bit seed through substreams
keyed by (seed, tag, *indices).  Independent pipeline stages (corpus,
teachers, student init, sampling, probe split) therefore never perturb each
other, and per-sample streams make the sampled pair independent of batch
composition.

``substream`` returns one numpy ``Generator`` and serves the one-off streams
(corpus bases, initialisation, epoch order, splits).  ``substreams`` builds
many streams at once, one per row of its key arrays: the per-video pair
streams that training draws every epoch, and the per-video corpus streams,
whose states ``Substreams.numpy_states`` hands to numpy's normal sampler.
It is a port of the numpy chain behind ``substream`` (``SeedSequence`` pool
mixing, then PCG64 seeding and stepping with the XSL-RR output, then
``Generator.integers``' Lemire draw, O'Neill 2014; Lemire 2019, arXiv
1805.10941) to whole arrays of 64-bit words, so row r of
``substreams(seed, tag, ids, epoch).integers(w)`` equals
``substream(seed, tag, ids[r], epoch).integers(w)`` exactly.

NEP 19 does not pin the algorithm of ``Generator.integers`` across numpy
versions.  ``test_streams_match_recorded_values`` (``tests/test_seeding.py``)
and ``test_draw_pairs_matches_recorded_pairs`` (``tests/test_sampling.py``)
hold recorded draws, and the port is checked against numpy draw for draw; a
numpy upgrade that moves either fails those tests rather than silently
changing runs.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_M32 = 0xFFFFFFFF

# Array constants are 0-d arrays: numpy combines those with an array faster
# than Python ints or numpy scalars, which matters on (R,) arrays of a few
# hundred words.
_U32 = functools.partial(np.array, dtype=np.uint32)
_U64 = functools.partial(np.array, dtype=np.uint64)
_LOW, _HALF = _U64(_M32), _U64(32)
_ONE, _SH58, _SH63, _SH64 = _U64(1), _U64(58), _U64(63), _U64(64)
# numpy's SeedSequence constants (pool size 4, 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = _U32(0xCA01F9DD), _U32(0x4973F715), _U32(16)
# PCG64's 128-bit multiplier: high word, low word and the low word's 32-bit limbs
_PCG_HI, _PCG_LO = _U64(2549297995355413924), _U64(4865540595714422341)
_PCG_LO0, _PCG_LO1 = _PCG_LO & _LOW, _PCG_LO >> _HALF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``; keys each stream by its tag."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _sequence(seed: int, tag: str, indices) -> np.random.SeedSequence:
    keys = [int(seed) & _MASK64, fnv1a64(tag.encode("utf-8"))]
    keys.extend(int(i) & _MASK64 for i in indices)
    return np.random.SeedSequence(keys)


def substream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Generator for the (seed, tag, *indices) stream."""
    return np.random.default_rng(_sequence(seed, tag, indices))


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """A fresh 64-bit seed for a child component (e.g. the k-th teacher)."""
    state = _sequence(seed, tag, indices).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of the first ``count`` hashes of a
    SeedSequence hash chain, as (count, 1) columns: each hash xors with the
    running constant, steps it by ``mult``, then multiplies by the new value."""
    xor, mul, h = [], [], init
    for _ in range(count):
        xor.append(h)
        h = h * mult & _M32
        mul.append(h)
    columns = np.array([xor, mul], np.uint32)[:, :, None]
    columns.flags.writeable = False  # shared by every caller through the cache
    return columns[0], columns[1]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mul
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _XSHIFT)


def _seed_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for each column of
    the (W, R) uint32 entropy ``words``, as (4, R) uint64.

    The hash constants do not depend on the data, so each step of numpy's
    scalar loops becomes one operation on a block of pool words: the pool is
    hashed in, every pool word is mixed into the other three, and each entropy
    word past the pool is mixed into all four.
    """
    width = words.shape[0]
    xor, mul = _hash_constants(_INIT_A, _MULT_A,
                               _POOL * _POOL + _POOL * max(width - _POOL, 0))
    pool = np.zeros((_POOL, words.shape[1]), np.uint32)
    pool[:width] = words[:_POOL]
    pool = _hash(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3], mul[k:k + 3]))
        k += _POOL - 1
    for src in range(_POOL, width):
        pool = _mix(pool, _hash(words[src], xor[k:k + _POOL], mul[k:k + _POOL]))
        k += _POOL
    # the eight output words cycle through the pool twice
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    out = _hash(np.concatenate([pool, pool]), xor, mul).astype(np.uint64)
    return out[0::2] | (out[1::2] << _HALF)


class Substreams:
    """R independent PCG64 streams held as arrays, row r the numpy stream
    ``substream(seed[r], tag, *(i[r] for i in indices))``.

    Each row keeps PCG64's 128-bit state and increment in two uint64 words
    and numpy's buffered upper half of the last 64-bit output, so draws
    continue exactly as the row's ``Generator`` would.
    """

    def __init__(self, seeds: np.ndarray):
        """``seeds``: (4, R) uint64, each column a ``SeedSequence``'s
        ``generate_state(4, uint64)`` (state high and low word, then the
        increment's), seeded as numpy's ``PCG64(seed_sequence)`` does."""
        self._inc_hi = (seeds[2] << _ONE) | (seeds[3] >> _SH63)
        self._inc_lo = (seeds[3] << _ONE) | _ONE
        # one step from state 0 gives the increment; add the seed and step again
        self._lo = self._inc_lo + seeds[1]
        self._hi = self._inc_hi + seeds[0] + (self._lo < self._inc_lo)
        self._step(slice(None))
        self._buf = np.zeros(len(self), np.uint64)
        self._has = np.zeros(len(self), bool)

    def __len__(self) -> int:
        return self._lo.size

    def numpy_states(self) -> Iterator[dict]:
        """Each row's state, as of this call, as numpy's ``PCG64.state`` dict:
        set it on one reused ``PCG64`` to draw the row's stream with numpy's
        own samplers (the ziggurat normals have no port here).  The dicts are
        made one at a time, as the caller takes them."""
        return ({"bit_generator": "PCG64",
                 "state": {"state": hi << 64 | lo, "inc": ihi << 64 | ilo},
                 "has_uint32": int(has), "uinteger": buf}
                for hi, lo, ihi, ilo, has, buf in zip(
                    self._hi.tolist(), self._lo.tolist(), self._inc_hi.tolist(),
                    self._inc_lo.tolist(), self._has.tolist(), self._buf.tolist()))

    def _step(self, rows) -> np.ndarray:
        """Advance ``rows`` one PCG64 step; their 64-bit XSL-RR outputs."""
        hi, lo = self._hi[rows], self._lo[rows]
        # (hi, lo) * multiplier mod 2^128, the low product from 32-bit limbs
        lo0, lo1 = lo & _LOW, lo >> _HALF
        p00, p01 = lo0 * _PCG_LO0, lo0 * _PCG_LO1
        p10, p11 = lo1 * _PCG_LO0, lo1 * _PCG_LO1
        mid = (p00 >> _HALF) + (p01 & _LOW) + (p10 & _LOW)
        new_lo = (p00 & _LOW) | (mid << _HALF)
        new_hi = (p11 + (p01 >> _HALF) + (p10 >> _HALF) + (mid >> _HALF)
                  + hi * _PCG_LO + lo * _PCG_HI)
        lo = new_lo + self._inc_lo[rows]
        hi = new_hi + self._inc_hi[rows] + (lo < new_lo)
        self._hi[rows], self._lo[rows] = hi, lo
        x = hi ^ lo
        rot = hi >> _SH58
        return (x >> rot) | (x << ((_SH64 - rot) & _SH63))

    def _next32(self, rows) -> np.ndarray:
        """Next 32-bit output of each of ``rows`` (an index array or
        ``slice(None)``): the buffered upper half of the last 64-bit output
        if there is one, else the lower half of a fresh one."""
        has = self._has[rows].copy()  # a view would change as rows draw below
        buffered = np.count_nonzero(has)
        if buffered == 0:
            x = self._step(rows)
            self._buf[rows], self._has[rows] = x >> _HALF, True
            return x & _LOW
        if buffered == has.size:
            self._has[rows] = False
            return self._buf[rows].copy()
        rows = np.arange(len(self))[rows]
        out = np.empty(rows.size, np.uint64)
        out[has] = self._next32(rows[has])
        out[~has] = self._next32(rows[~has])
        return out

    def _bounded(self, width: int) -> np.ndarray:
        """One draw per row uniform on [0, width), 1 <= width <= 2^32, by
        Lemire's multiply-and-reject; rejected rows redraw."""
        if width == 1:
            return np.zeros(len(self), np.int64)
        w, threshold = _U64(width), _U64((1 << 32) % width)
        m = self._next32(slice(None)) * w
        if threshold:  # a power-of-two width never rejects
            redraw = ((m & _LOW) < threshold).nonzero()[0]
            while redraw.size:
                m[redraw] = self._next32(redraw) * w
                redraw = redraw[(m[redraw] & _LOW) < threshold]
        return (m >> _HALF).astype(np.int64)

    def integers(self, high) -> np.ndarray:
        """Each row's ``Generator.integers(high)``: an (R,) draw for an int
        ``high``, an (R, T) one for a length-T sequence of bounds, drawn
        left to right.  Every bound must lie in [1, 2^32]."""
        high = np.asarray(high)
        bounds = [int(h) for h in high.ravel()]
        if any(not 1 <= h <= 1 << 32 for h in bounds):
            raise ValueError(f"bounds must lie in [1, 2^32], got {high}")
        if high.ndim == 0:
            return self._bounded(bounds[0])
        out = np.empty((len(self), len(bounds)), np.int64)
        for t, h in enumerate(bounds):
            out[:, t] = self._bounded(h)
        return out


def substreams(seed, tag: str, *indices) -> Substreams:
    """The streams ``substream(seed, tag, *indices)`` for many keys at once.

    ``seed`` and each index may be an integer or an (R,) integer array; scalars
    are shared by every row, and all-scalar keys give one row.  Keys fold
    modulo 2^64, as in ``substream``.
    """
    given = []
    for k in (seed, fnv1a64(tag.encode("utf-8")), *indices):
        if isinstance(k, (int, np.integer)):
            k = int(k) & _MASK64
        elif np.asarray(k).dtype.kind not in "iu":
            raise TypeError(f"stream keys must be integers, got dtype {np.asarray(k).dtype}")
        given.append(k)
    shape = np.broadcast_shapes(*(np.shape(k) for k in given))
    if len(shape) > 1:
        raise ValueError(f"stream keys must be scalars or 1-D arrays, got shape {shape}")
    keys = np.empty((len(given), *(shape or (1,))), np.uint64)
    for j, k in enumerate(given):
        keys[j] = k  # a negative array key wraps modulo 2^64 here
    # SeedSequence splits a key into one 32-bit word below 2^32 and two from
    # there, so rows are seeded in groups of equal word layout
    words = np.empty((2 * len(keys), keys.shape[1]), np.uint32)
    words[0::2], words[1::2] = keys & _LOW, keys >> _HALF
    layout = ((keys > _LOW) << np.arange(len(keys), dtype=np.uint64)[:, None]).sum(0)
    uniform = keys.shape[1] == 0 or (layout == layout[0]).all()
    seeds = np.empty((4, keys.shape[1]), np.uint64)
    for g in layout[:1] if uniform else np.unique(layout):
        rows = slice(None) if uniform else np.flatnonzero(layout == g)
        cols = [w for j in range(len(keys)) for w in (2 * j, 2 * j + 1)[:1 + int(g >> j & 1)]]
        seeds[:, rows] = _seed_state(words[cols][:, rows])
    return Substreams(seeds)
