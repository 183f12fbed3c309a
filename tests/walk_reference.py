"""The hitting-time simulator as the per-step loop it ran before it advanced
one block of choices per table lookup: each step takes the next choice of
`walks._choices` and ends the trial when it lands on v, and the next trial
resumes the one stream from u.  Tests check `simulate_hitting_time` against
it field for field.

Also the block table and the hit summaries as they were built before each
table row came from one row lookup and each mask's summary from a cache:
tests check the new constructions against these entry for entry."""

from itertools import chain

from drglab.walks import MonteCarloEstimate, _choices, _estimate, _walk_degree


def hitting_time(g, u, v, trials, seed) -> MonteCarloEstimate:
    if u == v:
        raise ValueError("hitting time needs distinct endpoints")
    choices = _choices(seed, _walk_degree(g, (u, v), trials, seed))
    adjacency = g.adjacency
    total = 0
    total_sq = 0
    for _ in range(trials):
        cur = u
        steps = 0
        for c in choices:  # resumes the one stream where the last trial stopped
            cur = adjacency[cur][c]
            steps += 1
            if cur == v:
                break
        total += steps
        total_sq += steps * steps
    return _estimate(total, total_sq, trials, seed)


def block_table(g, u, v, length):
    """`walks._block_table`: the state y + n * mask after each block of
    `length` steps from each y, built backward from the last step."""
    n, adjacency = g.n, g.adjacency
    if length == 1:
        rows = list(adjacency)
        for w in adjacency[v]:
            row = rows[w] = list(rows[w])
            row[row.index(v)] = u + n
        return rows * 2
    rows = [[y] for y in range(n)]
    for j in range(length, 0, -1):
        hit = [s + (n << (j - 1)) for s in rows[u]]
        rows = [list(chain.from_iterable([hit if w == v else rows[w] for w in adjacency[y]])) for y in range(n)]
    return rows * (1 << length)


def hit_summaries(n, length):
    """`walks._hit_summaries`: (first, last, hits, squared gaps) of each
    state's mask, None for mask 0."""
    summaries = [None] * n
    for mask in range(1, 1 << length):
        steps = [t + 1 for t in range(length) if mask >> t & 1]
        gaps_sq = sum((b - a) ** 2 for a, b in zip(steps, steps[1:]))
        summaries += [(steps[0], steps[-1], len(steps), gaps_sq)] * n
    return summaries
