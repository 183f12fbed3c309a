"""The hitting-time simulator as the per-step loop it ran before it advanced
one block of choices per table lookup: each step takes the next choice of
`walks._choices` and ends the trial when it lands on v, and the next trial
resumes the one stream from u.  Tests check `simulate_hitting_time` against
it field for field."""

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
