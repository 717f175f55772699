"""numpy's seed sequences and PCG64 streams, many at once, as arrays.

``seed_state`` computes the state words of many ``SeedSequence``s in one
pass.  ``Streams`` holds one PCG64 per row, seeded from those words as
numpy's ``default_rng`` seeds it, and draws what a ``Generator`` draws, bit
for bit, for every row it is given in one call.  Word j of a stream comes
from its state j steps on, state_j = M**j * state + (sum of M**i, i < j) * inc
mod 2**128 (O'Neill, "PCG", HMC-CS-2014-0905, 2014; Brown, "Random number
generation with arbitrary strides", 1994), so no stream is stepped word by
word.  The 128-bit products run on (hi, lo) uint64 pairs through 32-bit
limbs; uint64 arrays wrap silently, which the arithmetic relies on.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# numpy's SeedSequence (O'Neill's seed_seq_fe) hashes entropy words into a
# pool of four uint32 words, mixes it and hashes it out as state words.  Hash
# k xors with constant k of its table and multiplies by constant k + 1; no
# constant depends on the data, so each (xor, multiplier) pair is built once.
_HASH_A, _HASH_B = (
    np.array([[a * pow(m, k + j, 2**32) % 2**32 for k in range(20)] for j in (0, 1)], np.uint32)
    for a, m in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED))
)
_MIX_L, _MIX_R, _SHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(values: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    values = (values ^ hashes[0]) * hashes[1]
    return values ^ values >> _SHIFT


# Hashes 0-3 fill the pool.  Cross-mix step s hashes word s once for each
# other word d, in increasing d, from hash 4 + 3s (its row s goes unused).
_CROSS = [_HASH_A[:, np.arange(4) - (np.arange(4) > s) + 3 * s + 4, None] for s in range(4)]


def seed_state(entropy: np.ndarray, streams: int | None = None) -> np.ndarray:
    """numpy's ``SeedSequence(e).generate_state(4, np.uint64)`` for every
    column e of ``entropy`` (4 x N uint32 words, zero-padded), in one pass:
    (N, 4), C-contiguous.  With ``streams``, that of ``SeedSequence(e,
    spawn_key=(i,))`` for each i < streams: (streams, N, 4)."""
    pool = _hashmix(entropy, _HASH_A[:, :4, None])
    for s, hashes in enumerate(_CROSS):
        # mix each word with a hash of word s, which the step leaves as it is
        mixed = pool * _MIX_L - _hashmix(pool[s], hashes) * _MIX_R
        mixed ^= mixed >> _SHIFT
        mixed[s] = pool[s]
        pool = mixed
    if streams is not None:
        # a spawn key i, a fifth entropy word, is hashed once per word
        # (hashes 16-19), kept times MIX_MULT_R as (word, i, 1)
        keys = np.arange(streams, dtype=np.uint32)[:, None]
        mixed = pool[:, None] * _MIX_L - _MIX_R * _hashmix(keys, _HASH_A[:, 16:20, None, None])
        pool = mixed ^ mixed >> _SHIFT
    words = _hashmix(pool.reshape(4, -1), _HASH_B[:, :8].reshape(2, 2, 4, 1)).reshape(8, -1).T
    # word pairs, low word first, as numpy reads them
    state = np.ascontiguousarray(words, "<u4").view("<u8").astype(np.uint64, copy=False)
    return state.reshape(*pool.shape[1:], 4)


_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's multiplier M
_LOW = np.uint64(0xFFFFFFFF)


def _pair(value: int) -> np.ndarray:
    """A 128-bit constant as a (hi, lo) pair, (2, 1) uint64."""
    return np.array([[value >> 64], [value & 0xFFFFFFFFFFFFFFFF]], np.uint64)


def _add(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 of (hi, lo) pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2**128 of (hi, lo) pairs; the high word of lo * lo from
    32-bit limbs."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> 32, al & _LOW, bl >> 32, bl & _LOW
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _LOW) + (p10 & _LOW)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + al * bh + ah * bl
    return hi, al * bl


@cache
def _jumps(size: int) -> np.ndarray:
    """M**j and the sum of M**i over i < j, mod 2**128, for each j < ``size``,
    a power of two: (hi or lo, M**j or sum, size); built by doubling."""
    if size == 1:
        return np.stack([_pair(1), _pair(0)], axis=1)
    a, c = _jumps(size // 2).swapaxes(0, 1)
    # M**n and its sum from the last entry, n = size // 2; then entry n + i
    # is M**n * M**i, and its sum that of n plus M**n times that of i
    an, cn = np.array(_mul(a[:, -1:], _pair(_MULT))), np.array(_add(c[:, -1:], a[:, -1:]))
    a, c = np.hstack([a, _mul(an, a)]), np.hstack([c, _add(cn, _mul(an, c))])
    return np.stack([a, c], axis=1)


def _uniform(words: np.ndarray) -> np.ndarray:
    """``random()`` of each word: its top 53 bits over 2**53."""
    return (words >> 11) * 2.0**-53


def _shuffle(n: int, halves: list[int], at: int) -> tuple[list[int], int]:
    """numpy's ``permutation(n)``: Fisher-Yates from the last place down, each
    swap index j <= i its ``random_interval``, a half masked to i's width and
    drawn again while j > i.  Reads ``halves`` from ``at``; returns the order
    and the position after the last half read (IndexError if they run out)."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = halves[at] & mask
        while j > i:
            at += 1
            j = halves[at] & mask
        at += 1
        order[i], order[j] = order[j], order[i]
    return order, at


class Streams:
    """One PCG64 per row, each as ``default_rng`` seeds it from that row's
    ``seed_state`` words (``words``: (..., 4), rows in C order).  It holds the
    (hi, lo) state and inc (``_pcg``: hi or lo, state or inc, row) and the kept
    half, ``has_uint32`` and ``uinteger``, as uint64 arrays over the rows.  Each
    draw takes ``rows``, an index array, and draws on each of them what
    ``Generator`` would draw, one row of the result per row."""

    def __init__(self, words: np.ndarray) -> None:
        words = words.reshape(-1, 4).T
        # initstate is words 0 (high) and 1, initseq words 2 and 3;
        # inc = 2 * initseq + 1, state = (initstate + inc) * M + inc
        inc = np.array([words[2] << 1 | words[3] >> 63, words[3] << 1 | 1])
        # state and inc side by side, so that a walk multiplies both at once
        self._pcg = np.stack([_add(_mul(_add(words[:2], inc), _pair(_MULT)), inc), inc], axis=1)
        self.has_uint32 = np.zeros(words.shape[1], np.uint64)
        self.uinteger = np.zeros(words.shape[1], np.uint64)

    def _walk(self, rows: np.ndarray, stop: int) -> tuple[np.ndarray, tuple]:
        """The next ``stop`` words of each row, (rows, stop), and the row's
        states 0 to ``stop`` steps on, a (hi, lo) pair of (rows, stop + 1)."""
        jumps = _jumps(1 << int(stop).bit_length())[:, :, None, : stop + 1]
        # M**j * state and sum(M**i, i < j) * inc in one product, then summed
        hi, lo = _mul(jumps, self._pcg[:, :, rows, None])
        states = hi, lo = _add((hi[0], lo[0]), (hi[1], lo[1]))
        # PCG64's output, XSL-RR: hi ^ lo rotated right by the top six bits
        x, rot = (hi ^ lo)[:, 1:], hi[:, 1:] >> 58
        return x >> rot | x << (64 - rot & 63), states

    def _step(self, rows: np.ndarray, states: tuple, steps) -> None:
        """Put each row on by its own count of ``steps``, from ``_walk``'s states."""
        at = np.arange(len(rows)), steps
        self._pcg[:, 0, rows] = states[0][at], states[1][at]

    def _halves(self, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Each row's kept half, then the low and high halves of ``words``."""
        halves = np.empty((len(rows), 1 + 2 * words.shape[1]), np.uint64)
        halves[:, 0] = self.uinteger[rows]
        halves[:, 1::2], halves[:, 2::2] = words & _LOW, words >> 32
        return halves

    def _read_halves(self, rows: np.ndarray, states: tuple, halves: np.ndarray, end) -> None:
        """Settle rows that read their ``halves`` up to position ``end``:
        end // 2 words are drawn, and an even end keeps the half there."""
        self._step(rows, states, end // 2)
        self.has_uint32[rows] = kept = end % 2 == 0
        at = np.arange(len(rows)), np.minimum(end, halves.shape[1] - 1)
        self.uinteger[rows] = np.where(kept, halves[at], self.uinteger[rows])

    def random(self, n: int, rows: np.ndarray) -> np.ndarray:
        """``random(n)`` on each row: (rows, n) doubles."""
        words, states = self._walk(rows, n)
        self._step(rows, states, n)
        return _uniform(words)

    def bits(self, n: int, rows: np.ndarray) -> np.ndarray:
        """``integers(0, 2, n)`` on each row: bit 31 of each of n uint32
        halves, the kept one first (Lemire's method never rejects at 2)."""
        words, states = self._walk(rows, (n + 1) // 2)
        halves = self._halves(rows, words)
        start = 1 - self.has_uint32[rows].astype(np.intp)
        picked = np.take_along_axis(halves, start[:, None] + np.arange(n), axis=1)
        self._read_halves(rows, states, halves, start + n)
        return (picked >> 31).astype(np.uint8)

    def random_bases(self, n: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each of n photons on each row, ``integers(0, 2)`` then
        ``random()``: a basis (its position in BASES) and the uniform that
        measures it, each (rows, n).  Fresh, two photons read three words
        [a, b, c]: the low half of a and b, then the high half of a and c.
        A kept half shifts the pattern on by one photon and back by two
        words, so that the kept half stands as the high half of word -2."""
        kept = self.has_uint32[rows].astype(np.intp)[:, None]
        # photon i reads place i + kept of the fresh pattern; column 0 is
        # photon -1, which only settles a row that draws no photon
        place = np.arange(-1, n) + kept
        low = place % 2 == 0
        basis = 3 * (place // 2) - 2 * kept + 2  # columns of words -2, -1, 0, ...
        uniform = basis + 2 - low
        drawn, states = self._walk(rows, n + (n + 1) // 2)
        words = np.empty((len(rows), 2 + drawn.shape[1]), np.uint64)
        words[:, 0], words[:, 1], words[:, 2:] = self.uinteger[rows] << 32, 0, drawn
        read = np.take_along_axis(words, basis, axis=1)
        # the last photon keeps the high half of a word whose low half it read
        self._step(rows, states, uniform[:, -1] - 1)
        self.has_uint32[rows] = low[:, -1]
        self.uinteger[rows] = np.where(low[:, -1], read[:, -1] >> 32, self.uinteger[rows])
        bases = np.where(low, read >> 31, read >> 63)[:, 1:] & 1
        return bases.astype(np.intp), _uniform(np.take_along_axis(words, uniform[:, 1:], axis=1))

    def permutation(self, n: int, rows: np.ndarray) -> np.ndarray:
        """``permutation(n)`` on each row: (rows, n).  The halves a row reads
        depend on its rejections: the rows that run out of the first n
        words walk twice as far, and only those rows."""
        orders, pending, stop = [None] * len(rows), np.arange(len(rows)), n
        while len(pending):
            part = rows[pending]
            words, states = self._walk(part, stop)
            halves = self._halves(part, words)
            end = 1 - self.has_uint32[part].astype(np.intp)
            for k, (line, at) in enumerate(zip(halves.tolist(), end.tolist())):
                try:
                    orders[pending[k]], end[k] = _shuffle(n, line, at)
                except IndexError:
                    end[k] = -1
            done = end >= 0
            self._read_halves(part[done], [g[done] for g in states], halves[done], end[done])
            pending, stop = pending[~done], 2 * stop
        return np.array(orders, np.intp).reshape(len(rows), n)
