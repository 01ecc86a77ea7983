"""Float64 vector primitives, the finite-difference gradient check, and the
declared rules of the config dataclasses.

All learning-path arithmetic in this package is double precision, which keeps
gradient checks tight at desk scale.  Vectors and matrices are plain numpy
float64 arrays; the helpers here validate shape and finiteness at the
boundaries where it matters.  A config dataclass declares each field's
kind and bounds once, with ``declared``, and its ``__post_init__`` calls
``check_fields``.
"""

from __future__ import annotations

import dataclasses
import operator
import sys
from dataclasses import dataclass
from enum import Enum
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
    the backward pass through the scaling.  Any row with norm <= ``EPS_NORM``,
    or with a norm that is not finite (an entry overflowed or is not finite),
    raises ``DegenerateInputError`` naming ``what``.
    """
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    ok = (norms > EPS_NORM) & (norms < np.inf)  # NaN fails both
    if not ok.all():
        bad = norms[~ok][0]
        kind = "near-zero" if bad <= EPS_NORM else "non-finite"
        raise DegenerateInputError(f"{what} has {kind} norm {bad:.3e}")
    return x / norms, norms


class FieldError(ValueError):
    """A dataclass field breaks its rule; the message reads ``"<key> <rule>"``."""

    def __init__(self, key: str, rule: str):
        super().__init__(f"{key} {rule}")
        self.key, self.rule = key, rule


def declared(kind, default=dataclasses.MISSING, **bounds):
    """A dataclass field that ``check_fields`` holds to ``kind`` and ``bounds``.

    ``kind`` is int, float (a finite number; integers count), str, an Enum
    class, or tuple (a tuple of integers, each held to the bounds); a bool is
    never any of them.  ``bounds`` are any of ``ge``, ``gt``, ``le`` and
    ``lt``.  A field whose default is None also takes None.
    """
    return dataclasses.field(default=default, metadata={"kind": kind, **bounds})


_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          tuple: "a list of integers"}


def check_fields(obj) -> None:
    """Raise ``FieldError`` for the first field of the dataclass ``obj`` whose
    value breaks its ``declared`` kind or bounds."""
    for f in dataclasses.fields(obj):
        if "kind" in f.metadata:
            value = getattr(obj, f.name)
            if not (value is None and f.default is None or _conforms(value, f.metadata)):
                shown = list(value) if isinstance(value, tuple) else value  # as JSON spells it
                raise FieldError(f.name, f"must be {_describe(f.metadata)}, got {shown!r}")


def _conforms(value, rule) -> bool:
    kind = rule["kind"]
    if kind is tuple:
        return isinstance(value, tuple) and all(_conforms(v, {**rule, "kind": int})
                                                for v in value)
    if kind is float:  # abs() <= the largest float also rejects NaN and huge integers
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    # JSON true/false arrive as bool, a subclass of int
    return (ok and not isinstance(value, bool)
            and all(op(value, rule[b]) for b, (op, _) in _BOUNDS.items() if b in rule))


def _describe(rule) -> str:
    """What a ``declared`` rule takes: "an integer >= 1", "a finite number >= 0
    and < 1", "one of 'a', 'b'"."""
    kind = rule["kind"]
    if issubclass(kind, Enum):
        return "one of " + ", ".join(repr(e.value) for e in kind)
    ends = " and ".join(f"{sign} {rule[b]}" for b, (_, sign) in _BOUNDS.items() if b in rule)
    return f"{_KINDS[kind]} {ends}".rstrip()


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
