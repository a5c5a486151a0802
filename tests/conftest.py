from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from netcoord.stepfn import StepFn


def save_edgelist(g, path) -> None:
    """Write g as load_edgelist reads it: 'n <count>', then each undirected
    edge once (i < j) as 'i j w', w as repr(float(w)) so it loads back exactly."""
    W = sp.triu(g.weights, k=1).tocoo()
    order = np.lexsort((W.col, W.row))
    lines = [f"n {g.n}"] + [f"{i} {j} {float(w)!r}" for i, j, w in zip(W.row[order], W.col[order], W.data[order])]
    Path(path).write_text("\n".join(lines) + "\n")


def random_stepfn(rng: np.random.Generator, max_pieces: int = 8) -> StepFn:
    """Random monotone step function with a handful of pieces."""
    k = int(rng.integers(1, max_pieces + 1))
    pos = np.sort(rng.uniform(0.0, 1.0, size=k - 1)) if k > 1 else np.array([])
    pos = np.unique(pos)
    vals = np.sort(rng.uniform(0.0, 1.0, size=len(pos) + 1))
    return StepFn.from_grid([0.0] + pos.tolist(), vals.tolist())


def step_with_pieces(rng, k: int) -> StepFn:
    """k pieces whose values repeat, sometimes with a step at 0, a knot at 1, values 0 or 1."""
    pos = np.sort(rng.choice(np.arange(1, 1000), size=k - 1, replace=False)) / 1000.0
    if rng.random() < 0.5 and k > 1:
        pos[-1] = 1.0
    vals = np.sort(rng.choice([0.0, 0.2, 0.5, 0.7, 1.0, *rng.random(3)], size=k))
    if rng.random() < 0.5:  # a step at 0 overrides the base
        return StepFn(base=float(rng.random()) * vals[0], steps=tuple(zip([0.0, *pos], vals)))
    return StepFn.from_grid([0.0, *pos], vals.tolist())


def random_admissible_wave_inputs(rng: np.random.Generator, n_steps=None):
    """Step values and inverse positions with pos_l >= a_l, which makes
    every prefix of the dominance integral strictly positive.  Returns
    None when the draw runs out of room (caller resamples)."""
    L = int(rng.integers(2, 7)) if n_steps is None else n_steps
    vals = np.sort(rng.uniform(0.05, 0.9, size=L + 1))
    vals = np.concatenate([vals, [1.0]])
    pos = [0.0]
    for l in range(1, L + 2):
        lo = max(float(vals[l]), pos[-1] + 1e-3)
        if lo > 1.0:
            return None
        pos.append(float(rng.uniform(lo, 1.0)) if l <= L else 1.0)
    pos = np.asarray(pos)
    if np.any(np.diff(pos) <= 0):
        return None
    return vals, pos


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
