"""Staircase (signed partition) combinatorics.

Staircases are weakly decreasing integer d-tuples.  They label both the
SU(d) irreps and the irreps of the algebra of partially transposed
permutations acting on m upper and n lower tensor factors.  A partition is
the special case with nonnegative entries.  All arithmetic here is exact:
hook lengths, Weyl dimensions and Littlewood-Richardson coefficients are
computed with integers and rationals, never floats.  The dimensions, the
LR coefficients and the partition lists are memoised with
``functools.cache``: each cached value is an int or a tuple, and
``partitions_of`` copies its tuple into a fresh list on every call.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


@dataclass(frozen=True, order=True)
class Staircase:
    """A weakly decreasing tuple of d signed integers.

    The number of rows d is fixed by the tuple length; trailing zeros are
    significant for indexing, so (2, 1) over d=2 and (2, 1, 0) over d=3 are
    distinct labels (of isomorphic SU-irreps of different groups).
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        try:
            entries = tuple(operator.index(e) for e in self.entries)
        except TypeError:
            raise ValueError(f"staircase entries must be integers, got {self.entries!r}") from None
        object.__setattr__(self, "entries", entries)
        if len(entries) == 0:
            raise ValueError("staircase needs at least one row")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"entries not weakly decreasing: {entries}")

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def size(self) -> int:
        """Signed box count: sum of all entries."""
        return sum(self.entries)

    @property
    def pos_size(self) -> int:
        return sum(e for e in self.entries if e > 0)

    @property
    def neg_size(self) -> int:
        """Number of boxes below zero, as a nonnegative integer."""
        return -sum(e for e in self.entries if e < 0)

    @property
    def length(self) -> int:
        """Number of nonzero entries."""
        return sum(1 for e in self.entries if e != 0)

    @property
    def is_partition(self) -> bool:
        return self.entries[-1] >= 0

    @property
    def is_empty(self) -> bool:
        return all(e == 0 for e in self.entries)

    def dual(self) -> "Staircase":
        """Label of the dual irrep: entries negated and reversed."""
        return Staircase(tuple(-e for e in reversed(self.entries)))

    def shift(self, k: int) -> "Staircase":
        """Add k to every entry (isomorphic SU(d) label)."""
        return Staircase(tuple(e + k for e in self.entries))

    def bump(self, row: int, delta: int) -> "Staircase":
        """Return a copy with entries[row] changed by delta (validates)."""
        if not 0 <= row < len(self.entries):
            raise IndexError(f"row {row} of a staircase with {len(self.entries)} rows")
        e = list(self.entries)
        e[row] += delta
        return Staircase(tuple(e))

    def is_staircase_for(self, m: int, n: int) -> bool:
        return self.pos_size <= m and self.neg_size <= n and self.size == m - n

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def staircase(*entries: int) -> Staircase:
    return Staircase(tuple(entries))


def empty_staircase(d: int) -> Staircase:
    return Staircase((0,) * d)


def box_label(d: int) -> Staircase:
    """Label of the defining representation."""
    return Staircase((1,) + (0,) * (d - 1))


def add_boxes(nu: Staircase) -> list[Staircase]:
    """All staircases obtained from nu by incrementing one entry.

    Ordered by increasing row index of the incremented entry.
    """
    out = []
    for i in range(nu.d):
        if i == 0 or nu.entries[i] + 1 <= nu.entries[i - 1]:
            out.append(nu.bump(i, +1))
    return out


def remove_boxes(nu: Staircase) -> list[Staircase]:
    """All staircases obtained from nu by decrementing one entry.

    Ordered by increasing row index of the decremented entry.
    """
    out = []
    for i in range(nu.d):
        if i == nu.d - 1 or nu.entries[i] - 1 >= nu.entries[i + 1]:
            out.append(nu.bump(i, -1))
    return out


@functools.cache
def dim_perm_irrep(lam: Staircase) -> int:
    """Dimension of the symmetric-group irrep labelled by the partition lam.

    Hook length formula m!/prod(hooks); equals the number of standard Young
    tableaux of shape lam.
    """
    if not lam.is_partition:
        raise ValueError(f"permutation irreps are labelled by partitions, got {lam}")
    rows = [e for e in lam.entries if e > 0]
    m = sum(rows)
    if m == 0:
        return 1
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    value = Fraction(factorial(m))
    for i, r in enumerate(rows):
        for j in range(r):
            hook = (r - j) + (cols[j] - i) - 1
            value /= hook
    if value.denominator != 1:
        raise RuntimeError(f"hook length formula gave {value} for {lam}")
    return int(value)


@functools.cache
def dim_gl_irrep(gamma: Staircase) -> int:
    """Weyl dimension of the SU(d) irrep labelled by the staircase gamma.

    prod_{i<j} (gamma_i - gamma_j + j - i) / (j - i); invariant under adding
    a constant to all entries, so negative entries are fine.
    """
    value = Fraction(1)
    g = gamma.entries
    for i in range(gamma.d):
        for j in range(i + 1, gamma.d):
            value *= Fraction(g[i] - g[j] + j - i, j - i)
    if value.denominator != 1:
        raise RuntimeError(f"Weyl dimension formula gave {value} for {gamma}")
    return int(value)


def sym_dim(k: int, d: int) -> int:
    """Dimension of the symmetric subspace of k qudits: C(k+d-1, k)."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return comb(k + d - 1, k)


@functools.cache
def lr_coeff(lam: Staircase, mu: Staircase, gamma: Staircase) -> int:
    """Littlewood-Richardson coefficient c_{lam,mu}^gamma for SU(d) labels.

    Staircases with negative entries are shifted to partitions first (lam and
    gamma by a shared constant, mu and gamma by another), exploiting the
    shift invariance of SU(d) labels.  The rule then counts LR skew tableaux
    of shape gamma/lam with content mu, with shapes truncated to d rows.
    """
    if not (lam.d == mu.d == gamma.d):
        raise ValueError("all three staircases must share the same d")
    if lam.size + mu.size != gamma.size:
        return 0
    a = max(0, -lam.entries[-1])
    b = max(0, -mu.entries[-1])
    deficit = -(gamma.entries[-1] + a + b)
    if deficit > 0:
        a += deficit
    lam_p = lam.shift(a)
    mu_p = mu.shift(b)
    gamma_p = gamma.shift(a + b)
    return _lr_partition(lam_p.entries, mu_p.entries, gamma_p.entries)


def _lr_partition(lam: tuple[int, ...], mu: tuple[int, ...], gamma: tuple[int, ...]) -> int:
    """Count LR skew tableaux of shape gamma/lam with content mu.

    All arguments are partitions padded to the same length d.  Cells are
    filled in reverse reading order (rows top to bottom, right to left), so
    the lattice-word property can be checked incrementally.
    """
    d = len(gamma)
    if any(gamma[i] < lam[i] for i in range(d)):
        return 0
    nvals = len([e for e in mu if e > 0])
    if nvals == 0:
        return 1 if gamma == lam else 0
    # cells in reverse reading order, as (row, col) with 0-based indices
    cells = []
    for i in range(d):
        for j in range(gamma[i] - 1, lam[i] - 1, -1):
            cells.append((i, j))
    # value placed at each column of the previous rows, for column-strictness
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (nvals + 1)  # counts[v] = multiplicity of value v placed so far
    total = 0

    def backtrack(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        right = filling.get((i, j + 1))  # row weakly increases to the right
        above = filling.get((i - 1, j))  # column strictly increases downward
        hi = right if right is not None else nvals
        lo = (above + 1) if above is not None else 1
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            # lattice word: after placing v, #v must not exceed #(v-1)
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            filling[(i, j)] = v
            backtrack(pos + 1)
            del filling[(i, j)]
            counts[v] -= 1

    backtrack(0)
    return total


def _partitions(total: int, max_rows: int, max_first: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of `total` into at most max_rows parts, largest first."""
    if total == 0:
        return [()]
    if max_rows == 0:
        return []
    first_cap = total if max_first is None else min(total, max_first)
    out = []
    for first in range(first_cap, 0, -1):
        for rest in _partitions(total - first, max_rows - 1, first):
            out.append((first,) + rest)
    return out


def partitions_of(m: int, d: int) -> list[Staircase]:
    """All partitions of m with at most d rows, padded to length d, lex descending.

    A fresh list on every call, so a caller may change it freely.
    """
    return list(_partitions_of(m, d))


@functools.cache
def _partitions_of(m: int, d: int) -> tuple[Staircase, ...]:
    out = [Staircase(p + (0,) * (d - len(p))) for p in _partitions(m, d)]
    return tuple(sorted(out, key=lambda s: s.entries, reverse=True))


def check_shape(m: int, n: int, d: int) -> tuple[int, int, int]:
    """(m, n, d) read through ``operator.index``, as ``Staircase`` reads its
    entries, to ints.  Raises ValueError naming the first of m, n and d that
    is a bool or no integer, or below its least value: 0 for m and n, 1 for d.
    """
    return check_count("m", m), check_count("n", n), check_count("d", d, least=1)


def check_count(key: str, value: int, least: int | None = 0) -> int:
    """``value`` read through ``operator.index`` to an int.  Raises ValueError
    naming ``key`` if it is a bool or no integer, or below ``least`` unless
    that is None."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"need an integer {key}, got {key}={value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"need {key} >= {least}, got {key}={value}")
    return value


def enumerate_staircases(m: int, n: int, d: int) -> list[Staircase]:
    """All staircases gamma over d rows with positive part <= m boxes,
    negative part <= n boxes and total m - n, in lexicographic descending order.

    These are exactly the labels appearing in the mixed Schur-Weyl
    decomposition of m upper and n lower tensor factors of C^d.  Bad
    arguments raise as in ``check_shape``.
    """
    m, n, d = check_shape(m, n, d)
    found = set()
    for p in range(max(0, m - n), m + 1):
        q = p - (m - n)
        if q > n:
            continue
        for pos in _partitions(p, d):
            for neg in _partitions(q, d - len(pos)):
                entries = list(pos) + [0] * (d - len(pos) - len(neg))
                entries += [-e for e in reversed(neg)]
                found.add(Staircase(tuple(entries)))
    return sorted(found, key=lambda s: s.entries, reverse=True)
