"""One home for every random draw of a run, replayed from raw PCG64 words.

A run makes a few hundred thousand scalar draws (a host index, a probe
target, an attempt coin), and numpy's `Generator` spends more time on the
call than on the draw. `Draws` wraps the run's `Generator` and computes the
same values in Python from raw 64-bit words, which it reads ahead in chunks
with `random_raw` from the run's own bit generator (PCG64; O'Neill 2014):

- `random()` is `(word >> 11) * 2**-53`;
- `uniform(lo, hi)` is `lo + (hi - lo) * random()`;
- `below(n)` for 2 <= n <= 2**32 is `Generator.integers(n)`, Lemire's
  bounded draw (Lemire 2019, "Fast Random Integer Generation in an
  Interval") on 32-bit halves: the low half of a word first, the high half
  kept for the next 32-bit draw. It checks nothing, for the two bounded
  draws of a run: the host index of `Topology.sample_attachment_targets`
  and the probe target of `Simulation._whitewash_wave`.

`sync()` steps the bit generator back over the words read ahead but not
taken and drops them. PCG64 is a 128-bit LCG with period 2**128, so
`advance(2**128 - k)` rewinds it by exactly k words. `sync()` then writes
back the spare half, which PCG64 keeps in its `has_uint32`/`uinteger`
state. Every other draw (`random` and `uniform` with a size, `shuffle`,
`permutation`) syncs first and goes to numpy; reading `bit_generator`
syncs too. So a run sees exactly the stream, and ends in exactly the state,
that the plain `Generator` would give it.

The replay rests on numpy internals: how PCG64 buffers the spare 32-bit
half and that `Generator.integers` uses Lemire's method for bounds up to
2**32. The golden output digests already pin numpy's stream, and the tests
check the replay against the plain `Generator`, so a numpy release that
changed either fails them.
"""

from __future__ import annotations

import numpy as np

_U32 = 0xFFFFFFFF
_TWO32 = 1 << 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_PERIOD = 1 << 128  # PCG64's period: advance(_PERIOD - k) steps back k words

# Words read ahead per refill.
CHUNK = 1024


class Draws:
    """The draws of one `np.random.Generator` over PCG64; see the module
    docstring. Scalar draws return Python ints and floats."""

    def __init__(self, rng: np.random.Generator, chunk: int = CHUNK):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("Draws replays PCG64 only")
        self._rng = rng
        self._bg = rng.bit_generator
        self._chunk = chunk
        # Words read ahead, next word last, so a draw is one `pop`.
        self._words: list[int] = []
        self._reset()

    # ---- the read-ahead buffer -------------------------------------

    def _reset(self) -> None:
        """Reload PCG64's spare-half buffer from the bit generator: the high
        half of a word not yet used (None if used), and the last high half
        stored, used or not."""
        state = self._bg.state
        self._u32 = state["uinteger"]
        self._spare = self._u32 if state["has_uint32"] else None

    def _refill(self) -> None:
        self._words[:] = self._bg.random_raw(self._chunk)[::-1].tolist()  # in place: callers hold it

    def sync(self) -> None:
        """Bring the bit generator back to the stream position of these
        draws, spare 32-bit half included, and drop the words read ahead."""
        words = self._words
        if words:
            self._bg.advance(_PERIOD - len(words))  # which clears the spare half
            words.clear()
        state = self._bg.state
        state["has_uint32"] = int(self._spare is not None)
        state["uinteger"] = self._u32
        self._bg.state = state

    def _delegate(self, name: str, *args, **kwargs):
        self.sync()
        try:
            return getattr(self._rng, name)(*args, **kwargs)
        finally:
            self._reset()

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        """The bit generator, synced."""
        self.sync()
        return self._bg

    # ---- draws -----------------------------------------------------

    def random(self, size=None):
        if size is not None:
            # Arrays come from numpy: for the thousands of draws a departure
            # batch takes, its fill beats converting a list of words.
            return self._delegate("random", size)
        words = self._words
        if not words:
            self._refill()
        return (words.pop() >> 11) * _DOUBLE_UNIT

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is not None:
            return self._delegate("uniform", low, high, size)
        low, high = float(low), float(high)
        span = high - low
        if not 0 <= span < float("inf"):
            return self._delegate("uniform", low, high)  # numpy's errors
        return low + span * self.random()

    def below(self, n: int) -> int:
        """`Generator.integers(n)` for a Python int 2 <= n <= 2**32,
        unchecked: the bounded draw of the sampler's host index and the
        wave's probe target. An `np.int64` bound would overflow `u * n` in
        int64, and for n = 1 numpy draws nothing. Both callers hold n >= 2:
        the sampler draws from the attachment pool, two entries per edge,
        and the wave from the live ids, never fewer than attach_edges + 1.

        Lemire's loop: each pass takes a 32-bit half u (the spare high half,
        else the low half of a popped word) and returns u * n >> 32 once its
        low half reaches 2**32 mod n, a threshold below n (0 for n = 2**32,
        which takes one bare half, as numpy does)."""
        while True:
            u = self._spare
            if u is None:
                words = self._words
                if not words:
                    self._refill()
                w = words.pop()
                self._spare = self._u32 = w >> 32
                u = w & _U32
            else:
                self._spare = None
            m = u * n
            low = m & _U32
            if low >= n or low >= (_TWO32 - n) % n:
                return m >> 32

    def permutation(self, x):
        return self._delegate("permutation", x)

    def shuffle(self, x) -> None:
        self._delegate("shuffle", x)
