"""Deterministic pseudorandom primitives built on splitmix64.

Every random draw in this package flows through these functions. State is a
plain 64-bit integer threaded explicitly through callers, so any computation
is a pure function of its seed: same state in, same (value, state) out. No
global state, no dependence on platform RNGs.

Reference: splitmix64 as published by Sebastiano Vigna (the generator behind
java.util.SplittableRandom); first output for seed 0 is 0xE220A8397B1DCDAF.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ParameterError

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: 2**-53, converts the top 53 bits of a draw to a float in [0, 1).
_INV53 = 1.0 / (1 << 53)

#: Fewer draws than this are taken with Python ints, more in one ``uint64``
#: pass: by `uniform_array`, and by `entities.ask` for a route's rows (rows
#: times the route's draws per row). A dozen numpy ``uint64`` operations cost
#: about 12 µs whatever the count, the scalar walk about 0.65 µs a value, and
#: the two meet at 16-18 values (2-vCPU Xeon VM, numpy 2.4).
_CROSSOVER = 17


def mix64(x: int) -> int:
    """The splitmix64 output function: two xor-shift-multiply rounds plus a
    final shift. Bijective on 64-bit integers."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: "np.ndarray") -> "np.ndarray":
    """`mix64` of every entry of a ``uint64`` array, computed in place (the
    products wrap mod 2**64, as the masks do in `mix64`). Returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def draw_array(starts: "np.ndarray", steps: "np.ndarray") -> "np.ndarray":
    """Draw number ``steps`` after state ``starts``, entry by entry
    (broadcast, both ``uint64``): the value the ``steps``-th `rng_next`
    from that state returns."""
    return mix64_array(steps * np.uint64(_GOLDEN) + starts)


def uniform_of(v: "np.ndarray") -> "np.ndarray":
    """`rng_uniform`'s float for each ``uint64`` draw: its top 53 bits over
    2**53."""
    return (v >> np.uint64(11)).astype(np.float64) * _INV53


def rng_next(state: int) -> tuple[int, int]:
    """Advance one splitmix64 step. Returns (64-bit value, next state)."""
    nxt = (state + _GOLDEN) & MASK64
    return mix64(nxt), nxt


def rng_advance(state: int, n: int) -> int:
    """The state ``n`` draws after ``state``: draw k after state s is
    ``mix64(s + k * golden)``, so a stream can be skipped without taking it."""
    return (state + n * _GOLDEN) & MASK64


def rng_uniform(state: int) -> tuple[float, int]:
    """Uniform float in [0, 1): top 53 bits of the next draw over 2**53."""
    v, state = rng_next(state)
    return (v >> 11) * _INV53, state


def rng_gauss(state: int) -> tuple[float, int]:
    """Standard normal via Box-Muller; consumes exactly two uniforms."""
    u1, state = rng_uniform(state)
    u2, state = rng_uniform(state)
    # 1 - u1 keeps the log argument in (0, 1], avoiding log(0).
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    return r * math.cos(2.0 * math.pi * u2), state


def gauss_of(u1: "np.ndarray", u2: "np.ndarray") -> "np.ndarray":
    """`rng_gauss`'s normal for each pair of uniforms (float arrays of one
    shape), with the same bits: `log` and `cos` are the scalar libm calls
    rng_gauss makes (numpy's vector `log` rounds differently on some inputs);
    the other steps are exactly rounded either way."""
    log = np.fromiter(map(math.log, (1.0 - u1).ravel().tolist()), np.float64, u1.size)
    cos = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).ravel().tolist()),
                      np.float64, u2.size)
    return (np.sqrt(-2.0 * log) * cos).reshape(u1.shape)


def rng_below(state: int, n: int) -> tuple[int, int]:
    """Integer in [0, n) derived from one uniform draw."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    u, state = rng_uniform(state)
    k = int(u * n)
    if k >= n:  # guards u*n rounding up to n
        k = n - 1
    return k, state


def rng_bytes(state: int, n: int) -> tuple[bytes, int]:
    """n pseudorandom bytes, little-endian per 8-byte draw."""
    out = bytearray()
    while len(out) < n:
        v, state = rng_next(state)
        out += v.to_bytes(8, "little")
    return bytes(out[:n]), state


def derive_seed(master: int, index: int) -> int:
    """Seed-splitting: the child seed for stream ``index`` of ``master``,
    the splitmix64 output at state offset ``master + index``. The mix
    decorrelates adjacent offsets, but the value depends only on the sum:
    ``derive_seed(42, 1) == derive_seed(43, 0)``, so children of nearby
    masters coincide and are not independent (ROADMAP item 3)."""
    return mix64((master + index + _GOLDEN) & MASK64)


def uniform_array(state: int, count: int) -> tuple["np.ndarray", int]:
    """``count`` uniforms in draw order, bit-identical to ``count`` calls of
    `rng_uniform`, and the state after them.

    splitmix64 is counter-based: step ``i`` mixes ``state + i * golden`` mod
    2**64, so the whole walk is one ``uint64`` array expression. Counts below
    `_CROSSOVER` take the same steps in Python ints, which is cheaper there.
    """
    count = operator.index(count)  # a numpy int would overflow the end state
    if count < 0:
        raise ParameterError(f"need count >= 0, got {count}")
    state &= MASK64
    if count < _CROSSOVER:
        out = []
        z = state
        for _ in range(count):
            z = (z + _GOLDEN) & MASK64
            v = ((z ^ (z >> 30)) * _MIX1) & MASK64  # mix64, inlined
            v = ((v ^ (v >> 27)) * _MIX2) & MASK64
            out.append(((v ^ (v >> 31)) >> 11) * _INV53)
        return np.array(out, dtype=np.float64), z
    z = np.arange(1, count + 1, dtype=np.uint64)  # draw_array, in place
    z *= np.uint64(_GOLDEN)
    z += np.uint64(state)
    z = mix64_array(z)
    z >>= np.uint64(11)
    return z.astype(np.float64) * _INV53, rng_advance(state, count)


def _below_array(state: int, bounds: "np.ndarray") -> tuple["np.ndarray", int]:
    """One `rng_below` draw per entry of ``bounds`` (all >= 1), in order."""
    u, state = uniform_array(state, len(bounds))
    k = (u * bounds).astype(np.int64)
    return np.minimum(k, bounds - 1), state  # guards u*n rounding up to n


def shuffled_indices(state: int, n: int) -> tuple[list[int], int]:
    """Fisher-Yates permutation of range(n), fully determined by state."""
    order = list(range(n))
    picks, state = _below_array(state, np.arange(n, 1, -1, dtype=np.int64))
    for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
        order[i], order[j] = order[j], order[i]
    return order, state


def sample_indices(state: int, n: int, k: int) -> tuple[list[int], int]:
    """k distinct indices from range(n), in selection order."""
    if not 0 <= k <= n:
        raise ParameterError(f"cannot sample {k} from {n}")
    pool = list(range(n))
    picked = []
    picks, state = _below_array(state, np.arange(n, n - k, -1, dtype=np.int64))
    for i, j in enumerate(picks.tolist()):
        picked.append(pool[j])
        pool[j] = pool[n - 1 - i]
    return picked, state
