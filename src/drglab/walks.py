"""The `walk` command's seeded walks.  Seeded contract: every walk step picks
the `c`-th entry of the current vertex's sorted adjacency list, where `c`
runs through the stream that `random.Random(seed).randrange(degree)` returns
call after call.  That stream is drawn in bulk: one `getrandbits(32 * size)`
call gives the next `size` Mersenne Twister words, lowest word first, read
back as explicit little-endian bytes; each word is shifted right to
`degree.bit_length()` bits and kept only if it is below `degree`, the same
shift and rejection as CPython's `Random._randbelow_with_getrandbits`.  Below
degree 256 those bits all lie in the word's high byte, so the draw takes
every fourth byte and one `bytes.translate` shifts it and drops the rejected
ones; above, it unpacks whole words.
So a (seed, trials) pair pins the estimate exactly, and the seed must be a
non-negative int (`random.Random` folds a negative seed onto its absolute
value).  One stream serves every vertex, so the simulators take regular
graphs only, as every distance-regular graph is.  Step counts accumulate as
exact integers before any division, keeping results independent of
summation order.

The hitting-time walk reads that unchanged stream a block of L choices at a
time: one lookup in a table built once per call gives the vertex L steps on
and which of those steps landed on the target, so every step, and every
estimate, is the same as one step per choice.  The cover-time walk, whose
state includes the vertices seen, still steps one choice at a time.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from fractions import Fraction
from itertools import chain, repeat
from operator import iadd
from typing import Callable, Generator, Iterator, Optional, Sequence

from .arrays import IntersectionArray, _Record
from .circuits import representative_pairs
from .graphs import ExplicitGraph, RegularityFailure, verify_distance_regular
from .resistance import resistance_profile

# bench/ imports these from here until it imports them from their homes
from .analysis import commute_time, walk_bounds
from .verification import spectral_check

# the hitting walk advances a block of L steps per table lookup: L is the
# most steps, at most MAX_BLOCK, whose degree**L block indices fit one byte
# and whose table of n * degree**L entries fits TABLE_CAP, which bounds the
# table's build time and memory on graphs of more than 64 vertices
TABLE_CAP = 1 << 14
MAX_BLOCK = 8


class MonteCarloEstimate(_Record):
    def __init__(self, mean: float, stderr: float, trials: int, seed: int) -> None:
        self.__dict__.update(mean=mean, stderr=stderr, trials=trials, seed=seed)


def _estimate(total: int, total_sq: int, trials: int, seed: int) -> MonteCarloEstimate:
    """Sample mean and its standard error from exact integer step sums."""
    mean = total / trials
    if trials > 1:
        variance = (total_sq - total * total / trials) / (trials - 1)
        stderr = math.sqrt(max(variance, 0.0) / trials)
    else:
        stderr = 0.0
    return MonteCarloEstimate(mean, stderr, trials, seed)


def _choice_chunks(seed: int, degree: int) -> Generator[bytes | list[int], Optional[int], None]:
    """The `random.Random(seed).randrange(degree)` stream, drawn in bulk, as
    successive chunks of choices: bytes below degree 256, else lists; degree
    >= 1.  Each chunk doubles the last, up to 16384 words, unless the caller
    sends the number of choices it still expects to need, which sizes the
    next chunk instead; either way the stream is the same."""
    rng = random.Random(seed)
    bits = degree.bit_length()
    if bits <= 8:
        keep, drop = _high_byte_tables(degree)
    shift = 32 - bits
    limit = degree << shift  # word >> shift < degree exactly when word < limit
    size = 1024
    while True:
        words = rng.getrandbits(32 * size).to_bytes(4 * size, "little")
        if bits <= 8:
            # a choice is the top `bits` bits of a word, all in its high byte
            wanted = yield words[3::4].translate(keep, drop)
        else:
            wanted = yield [word >> shift for word in struct.unpack(f"<{size}I", words) if word < limit]
        # a choice takes 2**bits / degree words on average; at least 64
        # words, so that a long last trial does not draw many tiny chunks
        size = min(2 * size if wanted is None else max(-(-(wanted << bits) // degree), 64), 16384)


@functools.cache
def _high_byte_tables(degree: int) -> tuple[bytes, bytes]:
    """The `bytes.translate` tables that read a choice below degree 256 from
    a word's high byte: each byte shifted right to its top
    `degree.bit_length()` bits, and the bytes whose top bits reach degree.
    Cached: at most 255 degrees take it."""
    shift = 8 - degree.bit_length()
    return bytes(x >> shift for x in range(256)), bytes(range(degree << shift, 256))


def _choices(seed: int, degree: int) -> Iterator[int]:
    """The `_choice_chunks` stream one choice at a time."""
    return chain.from_iterable(_choice_chunks(seed, degree))


def _block_length(n: int, degree: int) -> int:
    """The most steps L, at most MAX_BLOCK, whose degree**L block indices fit
    one byte and whose table of n * degree**L states fits TABLE_CAP; at least 1."""
    length = 1
    while length < MAX_BLOCK and degree ** (length + 1) <= 256 and n * degree ** (length + 1) <= TABLE_CAP:
        length += 1
    return length


def _blocks(seed: int, degree: int, length: int) -> Generator[bytes | list[int], Optional[int], None]:
    """The `_choice_chunks` stream as block indices c_1 d^(L-1) + ... + c_L
    of `length` choices each, one sequence per chunk: bytes where the choices
    fit one, else a list (then `length` is 1 and the blocks are the choices).
    The fewer than `length` choices left at a chunk's end lead the next
    chunk's first block."""
    if length == 1:
        yield from _choice_chunks(seed, degree)
        return
    carry = b""
    chunks = _choice_chunks(seed, degree)
    chunk = next(chunks)
    while True:
        choices = carry + chunk
        whole = len(choices) - len(choices) % length
        # degree**length <= 256, so Horner's rule over whole byte strings
        # never carries from one block's byte into the next
        x = 0
        for t in range(length):
            x = x * degree + int.from_bytes(choices[t:whole:length], "little")
        carry = choices[whole:]
        # a bytes iterator hands a Python loop cached small ints, the cheapest
        # way, and says how many are left; a number sent back sizes the draw
        chunk = chunks.send((yield x.to_bytes(whole // length, "little")))


def _block_table(g: ExplicitGraph, u: int, v: int, length: int) -> list[Sequence[int]]:
    """The state after each block of `length` steps of the hitting walk from
    u to v, which goes on from u whenever it steps onto v.

    A state is y + n * mask: the walk stands at y, and bit t of mask is set
    when step t + 1 of the block hit v.  Row y + n * mask is row y, so
    `table[state][block]` is the state after the block."""
    n, adjacency = g.n, g.adjacency
    if length == 1:
        # the adjacency itself, v marked in the rows of its neighbors only:
        # n * degree may be far past TABLE_CAP
        rows: list[Sequence[int]] = list(adjacency)
        for w in adjacency[v]:
            row = rows[w] = list(rows[w])
            row[row.index(v)] = u + n
        return rows * 2
    # backward from the last step: rows[y] holds the state after steps j..L
    # from y, for each index of their choices; step j's choice is the more
    # significant digit, so a row is its neighbors' rows laid end to end,
    # read from `lookup`, where a step onto v goes on as from u with bit
    # j - 1 set
    rows = [[y] for y in range(n)]
    for j in range(length, 0, -1):
        lookup = rows[:]
        lookup[v] = [s + (n << (j - 1)) for s in rows[u]]
        row = lookup.__getitem__
        rows = [functools.reduce(iadd, map(row, neighbors), []) for neighbors in adjacency]
    return rows * (1 << length)


@functools.cache
def _mask_summaries(length: int) -> tuple[tuple[int, int, int, int], ...]:
    """For each mask 1 .. 2**length - 1 of the steps of a block that hit v:
    the first and last of them, how many, and the sum of the squared gaps
    between consecutive ones, which are the lengths of the trials the block
    holds.  Cached: lengths run 1..MAX_BLOCK."""
    summaries = []
    for mask in range(1, 1 << length):
        steps = [t + 1 for t in range(length) if mask >> t & 1]
        summaries.append((steps[0], steps[-1], len(steps), sum((b - a) ** 2 for a, b in zip(steps, steps[1:]))))
    return tuple(summaries)


def _hit_summaries(n: int, length: int) -> list[tuple[int, int, int, int] | None]:
    """The `_mask_summaries` entry of each state y + n * mask; None for mask 0."""
    return [None] * n + list(chain.from_iterable(map(repeat, _mask_summaries(length), repeat(n))))


def _walk_degree(g: ExplicitGraph, vertices: tuple[int, ...], trials: int, seed: int) -> int:
    """Check a simulation's arguments; return the graph's common degree."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for x in vertices:
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    degree = len(g.adjacency[0])
    if any(len(neighbors) != degree for neighbors in g.adjacency):
        raise ValueError("Monte Carlo walks need a regular graph")
    return degree


def simulate_hitting_time(
    g: ExplicitGraph, u: int, v: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Average steps of independent simple random walks from u until v."""
    if u == v:
        raise ValueError("hitting time needs distinct endpoints")
    degree = _walk_degree(g, (u, v), trials, seed)
    n = g.n
    length = _block_length(n, degree)
    table = _block_table(g, u, v, length)
    summaries = _hit_summaries(n, length)
    total_sq = 0
    to_go = trials  # trials not yet ended
    drawn = 0  # the steps of the blocks drawn so far
    # the running trial started after step start, the sum of the ended
    # trials' steps, kept in offset form: s0 = start - drawn + L.  With rl =
    # L times the blocks left in the chunk, a block starts after step
    # drawn - rl - L, so a trial that ends at its step t ran t - rl - s0 steps
    s0 = length
    cur = u
    stream = _blocks(seed, degree, length)
    blocks = next(stream)
    while True:  # endless; the last trial returns
        drawn += len(blocks) * length
        s0 -= len(blocks) * length
        it = iter(blocks)
        left = it.__length_hint__  # bound once: operator.length_hint costs 4x a call
        for b in it:
            cur = table[cur][b]
            if cur >= n:
                rl = left() * length
                first, last, hits, gaps_sq = summaries[cur]
                if hits < to_go:
                    steps = first - rl - s0
                    total_sq += steps * steps + gaps_sq
                    to_go -= hits
                    s0 = last - rl
                    continue
                for t in range(1, length + 1):  # the block that ends the last trial
                    if cur // n >> (t - 1) & 1:
                        steps = t - rl - s0
                        total_sq += steps * steps
                        s0 = t - rl
                        to_go -= 1
                        if not to_go:
                            return _estimate(s0 + drawn - length, total_sq, trials, seed)
        # the trials left at the mean length of those ended so far
        done = trials - to_go
        blocks = stream.send(to_go * (s0 + drawn - length) // done if done else None)


def simulate_cover_time(
    g: ExplicitGraph, start: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Sanity harness for the cover bound; no acceptance threshold attached."""
    degree = _walk_degree(g, (start,), trials, seed)
    if g.n == 1:  # covered before any step; degree 0 has no choice stream
        return _estimate(0, 0, trials, seed)
    choices = _choices(seed, degree)
    adjacency = g.adjacency
    total = 0
    total_sq = 0
    for _ in range(trials):
        seen = bytearray(g.n)
        seen[start] = 1
        remaining = g.n - 1
        cur = start
        steps = 0
        for c in choices:
            cur = adjacency[cur][c]
            steps += 1
            if not seen[cur]:
                seen[cur] = 1
                remaining -= 1
                if not remaining:
                    break
        total += steps
        total_sq += steps * steps
    return _estimate(total, total_sq, trials, seed)


class WalkReport(_Record):
    """A seeded hitting-time estimate between vertices at distance j against
    the exact m d_j, half the commute time 2 m d_j."""

    def __init__(
        self, array: IntersectionArray, distance: int, pair: tuple[int, int], expected: Fraction, estimate: MonteCarloEstimate
    ) -> None:
        self.__dict__.update(array=array, distance=distance, pair=pair, expected=expected, estimate=estimate)

    @property
    def within_3_stderr(self) -> bool:
        return abs(self.estimate.mean - float(self.expected)) <= 3 * self.estimate.stderr


def walk_graph(g: ExplicitGraph, from_distance: int, trials: int, seed: int) -> Callable[[], WalkReport] | RegularityFailure:
    """The graph's `RegularityFailure`, or a run that simulates the walks
    from 0 to the first vertex at `from_distance` when called and returns
    their `WalkReport`.  Every refusal comes at the call: a `ValueError` for
    a distance outside 1..D, trials < 1 or seed < 0."""
    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray):
        return verified
    if not 1 <= from_distance <= verified.D:
        raise ValueError(f"--from-distance must lie in 1..{verified.D}")
    pair = representative_pairs(g)[from_distance]
    _walk_degree(g, pair, trials, seed)
    profile = resistance_profile(verified)
    expected = profile.m * profile.at(from_distance)
    return lambda: WalkReport(verified, from_distance, pair, expected, simulate_hitting_time(g, *pair, trials, seed))
