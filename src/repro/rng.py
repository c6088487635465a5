"""Seeded randomness helpers and exact Mersenne-Twister vectorization.

All randomized code in this library accepts a ``seed`` argument that may
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`random.Random` / :class:`numpy.random.Generator` instance.  The
helpers here normalize those inputs so that every experiment in the
benchmark harness is reproducible bit-for-bit from a single integer.

The module is also the home of the library's one license to go fast
without changing a single simulated outcome: :class:`MTStream`, one
``random.Random`` consumed in NumPy batches.  It reproduces CPython's
MT19937 word-for-word — the same twist, the same tempering, the same
word-pair-to-float ``random()`` construction and the same
``_randbelow`` rejection loop — so batched draws and scalar draws
observe one identical stream, and :meth:`MTStream.commit` hands the
advanced state back to the Python generator at any observation point.

NumPy is optional: when it is missing (or ``REPRO_NO_NUMPY`` is set),
``HAVE_NUMPY`` is False, :class:`MTStream` refuses construction, and
every consumer (walk-exchange vectorization, the columnar round kernels
of :mod:`repro.congest.kernels`) silently degrades to its scalar path.

Reference: CPython ``_randommodule.c`` (``genrand_uint32``,
``random_random``) and ``Lib/random.py``
(``_randbelow_with_getrandbits``).
"""

from __future__ import annotations

import os
import random
from typing import List, Sequence, Union

try:  # pragma: no cover - exercised via the no-numpy CI leg
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("numpy disabled by REPRO_NO_NUMPY")
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

SeedLike = Union[None, int, random.Random]
if HAVE_NUMPY:
    NumpySeedLike = Union[None, int, "np.random.Generator"]
else:  # pragma: no cover - no-numpy degradation
    NumpySeedLike = Union[None, int]


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    Passing an existing ``random.Random`` returns it unchanged so that a
    caller can thread one generator through multiple subroutines.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def ensure_numpy_rng(seed: NumpySeedLike = None):
    """Return a :class:`numpy.random.Generator` for ``seed``."""
    if np is None:  # pragma: no cover - no-numpy degradation
        raise RuntimeError(
            "numpy is unavailable; this code path requires it"
        )
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(rng: random.Random, stream: str) -> int:
    """Derive a deterministic sub-seed for a named random stream.

    Distributed simulations run many independent randomized components
    (one per vertex, per cluster, per phase).  Deriving per-component
    seeds from one root generator keeps runs reproducible regardless of
    the order in which components consume randomness.
    """
    # Mix the stream name into the draw so distinct streams with the
    # same root generator do not collide.
    base = rng.getrandbits(64)
    return hash((base, stream)) & 0x7FFFFFFFFFFFFFFF


def split_rng(rng: random.Random, n: int) -> list:
    """Split ``rng`` into ``n`` independent child generators."""
    if n < 0:
        raise ValueError("cannot split into a negative number of generators")
    return [random.Random(rng.getrandbits(64)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Exact MT19937 vectorization
# ---------------------------------------------------------------------------

#: MT19937 parameters (Matsumoto & Nishimura 1998), as in CPython.
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000
_LOWER_MASK = 0x7FFFFFFF

#: random.Random state tuple version this module understands.
_STATE_VERSION = 3


def _twist_block(key):
    """One MT19937 state transition of the ``(624,)`` uint32 ``key``.

    The scalar reference updates ``mt[kk]`` in place for ascending
    ``kk``; every ``y`` is built from values the loop has not yet
    overwritten, so all 623 leading ``y`` words come straight from the
    old key.  The recurrence's only true dependency is
    ``new[kk] = f(new[kk - 227])`` for ``kk >= 227``, a chain of stride
    227 — two chunked assignments resolve it exactly.
    """
    up = np.uint32(_UPPER_MASK)
    low = np.uint32(_LOWER_MASK)
    one = np.uint32(1)
    mat = np.uint32(_MATRIX_A)
    new = np.empty_like(key)
    y = (key[..., : _N - 1] & up) | (key[..., 1:] & low)
    ysh = (y >> one) ^ ((y & one) * mat)
    new[..., : _N - _M] = key[..., _M:] ^ ysh[..., : _N - _M]
    new[..., 227:454] = new[..., 0:227] ^ ysh[..., 227:454]
    new[..., 454:623] = new[..., 227:396] ^ ysh[..., 454:623]
    y_last = (key[..., _N - 1] & up) | (new[..., 0] & low)
    new[..., _N - 1] = (
        new[..., _M - 1] ^ (y_last >> one) ^ ((y_last & one) * mat)
    )
    return new


def _temper(y):
    """MT19937 output tempering, elementwise on a uint32 array."""
    y = y ^ (y >> np.uint32(11))
    y = y ^ ((y << np.uint32(7)) & np.uint32(0x9D2C5680))
    y = y ^ ((y << np.uint32(15)) & np.uint32(0xEFC60000))
    y = y ^ (y >> np.uint32(18))
    return y


class MTStream:
    """A batched, commit-back-able clone of one ``random.Random``.

    The instance owns the generator's stream from adoption until
    :meth:`commit`; interleaving scalar draws on the original object in
    between would desynchronize the two (exactly as sharing one
    generator between two consumers always would).
    """

    __slots__ = ("_rng", "_key", "_pos", "_gauss")

    def __init__(self, rng: random.Random) -> None:
        if np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise RuntimeError("MTStream requires numpy")
        version, internal, gauss = rng.getstate()
        if version != _STATE_VERSION or len(internal) != _N + 1:
            raise ValueError(
                f"unsupported random.Random state version {version!r}"
            )
        self._rng = rng
        self._key = np.array(internal[:_N], dtype=np.uint32)
        self._pos = int(internal[_N])
        self._gauss = gauss

    # -- core word generation ------------------------------------------
    def _twist(self) -> None:
        """One vectorized MT19937 state transition."""
        self._key = _twist_block(self._key)
        self._pos = 0

    _temper = staticmethod(_temper)

    def words(self, count: int):
        """The next ``count`` 32-bit output words, in stream order."""
        out = np.empty(count, np.uint32)
        filled = 0
        while filled < count:
            if self._pos >= _N:
                self._twist()
            take = min(_N - self._pos, count - filled)
            out[filled : filled + take] = _temper(
                self._key[self._pos : self._pos + take]
            )
            self._pos += take
            filled += take
        return out

    # -- distribution-level batches ------------------------------------
    def random_batch(self, count: int):
        """``count`` floats, bit-identical to ``rng.random()`` calls.

        CPython builds each double from two consecutive words:
        ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``.
        """
        w = self.words(2 * count)
        a = (w[0::2] >> np.uint32(5)).astype(np.float64)
        b = (w[1::2] >> np.uint32(6)).astype(np.float64)
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def randbelow_batch(self, n: int, count: int) -> Sequence[int]:
        """``count`` ints below ``n``, identical to ``rng._randbelow``.

        The scalar rejection loop draws ``k = n.bit_length()`` top bits
        of one word per attempt until the value falls below ``n``.
        Batching draws exactly as many words as acceptances still
        needed, keeps the accepted values in word order, and repeats:
        the loop can only terminate on a chunk whose final word was
        itself an acceptance, so the total words consumed equal the
        scalar loop's consumption exactly — never one word more.
        """
        if count <= 0:
            return np.empty(0, np.uint32)
        if n <= 0:
            raise ValueError("n must be positive")
        if n.bit_length() > 32:
            # Multi-word getrandbits has different consumption; every
            # in-repo bound is a vertex/neighbor count, far below 2^32.
            raise ValueError("randbelow_batch supports bounds < 2**32")
        shift = np.uint32(32 - n.bit_length())
        chunks: List = []
        accepted = 0
        while accepted < count:
            r = self.words(count - accepted) >> shift
            good = r[r < n]
            accepted += len(good)
            chunks.append(good)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    # -- handing the stream back ---------------------------------------
    def commit(self) -> None:
        """Write the advanced state back into the adopted generator.

        After this call the original ``random.Random`` continues the
        stream exactly where the batched draws left off.
        """
        state = tuple(self._key.tolist()) + (self._pos,)
        self._rng.setstate((_STATE_VERSION, state, self._gauss))
