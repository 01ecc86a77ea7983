"""Float64 vector primitives and the finite-difference gradient check.

All learning-path arithmetic in this package is double precision, which keeps
gradient checks tight at desk scale.  Vectors and matrices are plain numpy
float64 arrays; the helpers here validate shape and finiteness at the
boundaries where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

EPS_NORM = 1e-12


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (zero-norm vector, rank-0 data, ...)."""


def as_vector(x, name: str = "input") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name}: expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains a non-finite entry")
    return v


def as_matrix(x, name: str = "input") -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name}: expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains a non-finite entry")
    return m


def softmax(logits) -> np.ndarray:
    """Probabilities along the last axis of the logits, shifted by the max so
    any finite input is overflow-free."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 0 or z.size == 0 or not np.all(np.isfinite(z)):
        raise ValueError(f"softmax needs a nonempty finite array, got shape {z.shape}")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def unit_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of ``x`` to unit Euclidean norm.

    Returns ``(x / norms, norms)`` with ``norms`` of shape (rows, 1), kept for
    the backward pass through the scaling.  Any row with norm <= ``EPS_NORM``
    raises ``DegenerateInputError`` naming ``what``.
    """
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms <= EPS_NORM):
        raise DegenerateInputError(f"{what} has near-zero norm {norms.min():.3e}")
    return x / norms, norms


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n orthogonal matrix: the Q factor of a Gaussian
    draw, with column signs fixed so the factorization is unique."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class GradReport:
    """Outcome of a finite-difference check of analytic gradients."""

    max_rel_error: float
    per_param_errors: tuple[tuple[str, float], ...]


def finite_diff_check(
    f: Callable[[Mapping[str, np.ndarray]], float],
    params: Mapping[str, np.ndarray],
    analytic_grads: Mapping[str, np.ndarray],
    eps: float = 1e-6,
) -> GradReport:
    """Compare analytic gradients against central differences of ``f``.

    ``f`` maps a dict of named float64 arrays to a scalar.  Each coordinate is
    perturbed by +/- eps in turn; the relative error per coordinate is
    |fd - an| / max(1, |fd|, |an|), which avoids blowup near zero gradients.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = {name: np.array(p, dtype=np.float64) for name, p in params.items()}
    per_param = []
    for name, p in work.items():
        an = np.asarray(analytic_grads[name], dtype=np.float64)
        if an.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        flat = p.reshape(-1)
        an_flat = an.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_hi = float(f(work))
            flat[i] = orig - eps
            f_lo = float(f(work))
            flat[i] = orig
            if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
                raise ValueError(f"f returned a non-finite value while perturbing {name!r}")
            fd = (f_hi - f_lo) / (2.0 * eps)
            a = an_flat[i]
            rel = abs(fd - a) / max(1.0, abs(fd), abs(a))
            worst = max(worst, rel)
        per_param.append((name, worst))
    max_err = max((e for _, e in per_param), default=0.0)
    return GradReport(max_rel_error=max_err, per_param_errors=tuple(per_param))
