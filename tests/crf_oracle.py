"""Brute-force linear-chain CRF: the reference ``LinearChainCRF`` is
tested against.

Independent of the lattice recursions on purpose: every one of the
``L ** n`` label paths is scored on its own, in plain Python floats, and
the arg-max path, ``log Z`` and the per-position posteriors are read off
that table.  Tiny sentences only (n <= 4, L <= 4).
"""

import itertools
import math


def path_score(emission, transition, sentence, path):
    """Unnormalised log score of one label path.

    ``emission[f][y]`` and ``transition[y'][y]`` are nested lists
    (``transition[L]`` is the start row); ``sentence`` holds each
    token's feature ids.
    """
    n_labels = len(transition) - 1
    score = transition[n_labels][path[0]]
    for t, label in enumerate(path):
        if t:
            score += transition[path[t - 1]][label]
        score += sum(emission[f][label] for f in sentence[t])
    return score


def solve(emission, transition, sentence):
    """``(best_paths, log_z, posteriors)`` of one non-empty sentence.

    ``best_paths`` lists every path within 1e-9 of the maximum (a tie is
    the caller's to tolerate); ``posteriors[t][y]`` is P(y at t).
    """
    n_labels = len(transition) - 1
    paths = list(itertools.product(range(n_labels), repeat=len(sentence)))
    scores = [path_score(emission, transition, sentence, p) for p in paths]
    peak = max(scores)
    log_z = peak + math.log(sum(math.exp(s - peak) for s in scores))
    posteriors = [[0.0] * n_labels for _ in sentence]
    for path, score in zip(paths, scores):
        weight = math.exp(score - log_z)
        for t, label in enumerate(path):
            posteriors[t][label] += weight
    best = [list(p) for p, s in zip(paths, scores) if peak - s <= 1e-9]
    return best, log_z, posteriors
