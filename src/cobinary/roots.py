"""Roots of the A_{n-1} root system as consecutive-block integer vectors.

A root here is s * (e_p + ... + e_{q-1}) in Z^{n-1} for 1 <= p < q <= n and
s in {+1, -1}.  The pair (p, q) doubles as an edge of a tree on n nodes and
as the support interval of an indecomposable representation, so this tiny
module is shared by the tree-side and the quiver-side code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotARoot
from .linalg import as_ints


@dataclass(frozen=True, order=True)
class Root:
    """The vector sign * (e_p + ... + e_{q-1})."""

    p: int
    q: int
    sign: int = 1

    def __post_init__(self) -> None:
        as_ints((self.p, self.q, self.sign))
        if not 1 <= self.p < self.q:
            raise ValueError(f"need 1 <= p < q, got p={self.p}, q={self.q}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def vector(self, n: int) -> tuple[int, ...]:
        """Coordinates in Z^{n-1}."""
        as_ints((n,))
        if self.q > n:
            raise ValueError(f"root ({self.p},{self.q}) does not fit in n={n}")
        return _block_vector(n, self.p, self.q, self.sign)

    def __neg__(self) -> "Root":
        return Root(self.p, self.q, -self.sign)


def root_from_vector(vec: Sequence[int]) -> Root:
    """Decode +-(e_p + ... + e_{q-1}); raises NotARoot otherwise."""
    support = [i for i, x in enumerate(vec) if x != 0]
    if not support:
        raise NotARoot(f"zero vector {tuple(vec)} is not a root")
    values = {vec[i] for i in support}
    if values not in ({1}, {-1}):
        raise NotARoot(f"{tuple(vec)} has entries outside {{0, +-1}} or mixed signs")
    lo, hi = support[0], support[-1]
    if hi - lo + 1 != len(support):
        raise NotARoot(f"support of {tuple(vec)} is not consecutive")
    return Root(lo + 1, hi + 2, vec[lo])


def is_root_vector(vec: Sequence[int]) -> bool:
    try:
        root_from_vector(vec)
    except NotARoot:
        return False
    return True


def positive_roots(n: int) -> Iterator[Root]:
    """All n(n-1)/2 positive roots, ordered by (p, q)."""
    as_ints((n,))
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            yield Root(p, q, 1)


def interval_vector(p: int, q: int, n: int) -> tuple[int, ...]:
    """e_p + ... + e_{q-1} in Z^{n-1}; the zero vector when p == q."""
    as_ints((p, q, n))
    if not 1 <= p <= q <= n:
        raise ValueError(f"need 1 <= p <= q <= n, got ({p}, {q}), n={n}")
    return _block_vector(n, p, q, 1)


def _block_vector(n: int, p: int, q: int, value: int) -> tuple[int, ...]:
    """value on coordinates p..q-1 of Z^{n-1} and 0 elsewhere, for
    1 <= p <= q <= n that the caller has checked."""
    return (0,) * (p - 1) + (value,) * (q - p) + (0,) * (n - q)
