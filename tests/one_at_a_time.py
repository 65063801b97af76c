"""One-at-a-time references for the grouped sampled comparisons."""


def worst_case(cases):
    """The first (residual, witness) case with the largest residual, its
    residual floored at 0.0; (0.0, None) when there are no cases: the worst
    case of comparing the members of a group one after another."""
    worst, witness = -1.0, None
    for residual, case in cases:
        if residual > worst:
            worst, witness = residual, case
    return max(worst, 0.0), witness
