"""Problem instances: a d x n matrix whose columns are the input vectors.

Columns must satisfy ||v_i||_2 <= 1 (up to a small load tolerance).  Instances
are immutable after construction and safe to share between threads.
Every random stream of the package is ``stream_rng(seed, *key)`` (``mc``'s run
draws are those values, computed in bulk by ``harness._stream_uniforms`` and
pinned bitwise by a test), every file goes through ``read_text`` /
``write_text``, every JSON document ``json_text``, every pool or split is sized
by ``usable_cores``, every set of distinct rows comes from ``distinct_rows``,
every byte-stable total is ``ordered_sum``, every outcome's image M x is
``Instance.images`` and every exp-overflow check reads ``EXP_LIMIT``.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (ContractViolationError, DimensionError, InstanceFormatError,
                         NormViolationError)

NORM_TOL = 1e-9
EXP_LIMIT = math.log(sys.float_info.max)    # largest x with a finite math.exp(x)

KINDS = ("identity", "random_unit_sphere", "random_in_ball", "duplicated_column",
         "sign_columns")


@dataclass(frozen=True)
class Instance:
    """A balancing instance: columns of ``matrix`` are the vectors v_1..v_n."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionError(f"instance matrix must be 2-D with d,n >= 1, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InstanceFormatError("instance contains non-finite entries")
        norms = np.linalg.norm(m, axis=0)
        worst = float(norms.max())
        if worst > 1.0 + NORM_TOL:
            raise NormViolationError(
                f"column norm {worst:.6g} exceeds 1 + {NORM_TOL:g}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def images(self, rows: np.ndarray) -> np.ndarray:
        """M x for each row x of ``rows`` (m, n), as (m, d); the stacked product
        makes each row's own matrix-vector call, the bits of ``matrix @ x``."""
        return np.matmul(self.matrix, rows[:, :, None])[:, :, 0]


def generate_instance(kind: str, d: int, n: int, seed: int) -> Instance:
    """Deterministically generate a test instance of the given family."""
    if d < 1 or n < 1:
        raise DimensionError(f"d and n must be >= 1, got d={d}, n={n}")
    if kind == "identity":
        if n > d:
            raise DimensionError(f"identity instance needs n <= d, got d={d}, n={n}")
        m = np.zeros((d, n))
        m[np.arange(n), np.arange(n)] = 1.0
        return Instance(m)
    if kind == "duplicated_column":
        m = np.zeros((d, n))
        m[0, :] = 1.0
        return Instance(m)
    rng = stream_rng(seed)
    if kind == "sign_columns":
        return Instance(rng.choice([-1.0, 1.0], size=(d, n)) / math.sqrt(d))
    if kind in ("random_unit_sphere", "random_in_ball"):
        m = rng.standard_normal((d, n))
        m /= np.linalg.norm(m, axis=0)
        if kind == "random_in_ball":
            m *= rng.random(n) ** (1.0 / d)
        return Instance(m)
    raise InstanceFormatError(f"unknown instance kind {kind!r}; expected one of {KINDS}")


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream ``key`` under ``seed``; () is the root stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row of ``rows`` (m, k), in order of first
    appearance, and each row's number among them; rows are equal when their
    bytes are.  ``rows[first][number]`` is ``rows``."""
    rows = np.ascontiguousarray(rows)
    raw = rows.view(np.uint8)
    if len(rows) and (raw == raw[0]).all():
        return np.zeros(1, dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    # index outputs keep np.unique from importing numpy.ma
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, number = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[number]


def ordered_sum(values) -> float:
    """The sum of ``values`` added left to right, whatever the interpreter's
    ``sum()`` does (3.12 made it compensated); 0.0 when empty."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def usable_cores() -> int:
    """CPUs in this process's affinity mask (the host's count without one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def read_text(path, error) -> str:
    """A UTF-8 file's text, universal newlines; undecodable bytes raise ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def json_text(obj) -> str:
    """The package's JSON layout: two-space indent, keys in insertion order.

    Strict JSON: writers state a non-finite number as null, so one reaching
    here is a ``ContractViolationError``, not an ``Infinity`` token.
    """
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ContractViolationError(f"cannot write strict JSON: {exc}") from None


def load_instance(path) -> Instance:
    """Read an instance file: header line "d n", then d rows of n floats."""
    raw_lines = read_text(path, InstanceFormatError).split("\n")
    lines = [ln for ln in (raw.strip() for raw in raw_lines) if ln]
    if not lines:
        raise InstanceFormatError(f"{path}: empty instance file")
    header = lines[0].split()
    if len(header) != 2:
        raise InstanceFormatError(f"{path}: header must be 'd n', got {lines[0]!r}")
    try:
        d, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != d:
        raise DimensionError(f"{path}: expected {d} data rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise DimensionError(f"{path}: expected {n} entries per row, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InstanceFormatError(f"{path}: unparseable float in row {ln!r}") from exc
    return Instance(np.array(rows))


def save_instance(inst: Instance, path) -> None:
    """Write an instance in the plain-text format read by :func:`load_instance`."""
    rows = [" ".join(format(x, ".17g") for x in row) for row in inst.matrix]
    write_text(path, "\n".join([f"{inst.d} {inst.n}", *rows]) + "\n")
