"""Small log-domain helpers shared by the weight recursions.

Each works along the last axis, so a stack of replicates (a leading axis)
costs one call, and each row's value is the one it has on its own."""

from __future__ import annotations

import numpy as np

NEG_INF = -np.inf


def outside(x, lo: float, hi: float) -> bool:
    """True if any entry of ``x`` lies outside [lo, hi]; nan always does.

    Two reductions and no temporaries: a nan makes both extremes nan, and
    every comparison with nan is False."""
    x = np.asarray(x, dtype=float)
    return x.size > 0 and not (x.min() >= lo and x.max() <= hi)


def logsumexp(logw: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(logw))) along ``axis``; -inf where every entry is -inf."""
    logw = np.asarray(logw, dtype=float)
    top = np.max(logw, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = top + np.log(np.sum(np.exp(logw - top), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def log_normalize(logw: np.ndarray) -> np.ndarray:
    """Shift log weights so each row describes a probability vector."""
    total = logsumexp(logw)
    if not np.isfinite(total).all():
        raise ValueError("cannot normalise: all weights are zero")
    return np.asarray(logw, dtype=float) - total[..., None]


def softmax(logw: np.ndarray) -> np.ndarray:
    """Normalise each row of an (..., m, n) log-weight array to a
    probability vector; a row with no mass becomes (1, 0, ..., 0), pure
    abstention."""
    total = logsumexp(logw)
    dead = total == NEG_INF
    p = np.exp(logw - np.where(dead, 0.0, total)[..., None])
    p[dead, 0] = 1.0
    return p / p.sum(axis=-1, keepdims=True)


def safe_log(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    out = np.full(w.shape, NEG_INF)
    pos = w > 0
    out[pos] = np.log(w[pos])
    return out
