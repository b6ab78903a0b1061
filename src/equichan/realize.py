"""Concrete realizations of SU(d) irreps in their Gelfand-Tsetlin bases.

The irrep labelled by a staircase gamma is realized on its Gelfand-Tsetlin
(GT) patterns, where the generators E_ij act by closed-form coefficients
(Gelfand-Tsetlin 1950; Molev, *Gelfand-Tsetlin bases for classical Lie
algebras*, 2006).  The single-box Clebsch-Gordan blocks are closed-form
too, one reduced Wigner factor per level (Biedenharn-Louck pattern
calculus), and the dual structures are signed permutations of patterns.
No eigensolver runs in this module.

The gl(d) generators E_ij act on C^d as matrix units, on the conjugate
factor as -E_ji, and on tensor products by the Leibniz rule.  All matrices
in this module are real; complex numbers appear only downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from equichan.staircases import (
    Staircase,
    dim_gl_irrep,
    empty_staircase,
)

CONSTRUCTION_TOL = 1e-10


def ambient_weights(d: int, factors: tuple[bool, ...]) -> np.ndarray:
    """Integer weight vector of every product-basis index, shape (d^#factors, d)."""
    nfac = len(factors)
    dim = d**nfac
    out = np.zeros((dim, d), dtype=int)
    idx = np.arange(dim)
    for pos, dual in enumerate(factors):
        digit = (idx // d ** (nfac - pos - 1)) % d
        sign = -1 if dual else 1
        for value in range(d):
            out[digit == value, value] += sign
    return out


def _check_simple_generators(raising: np.ndarray, weights: np.ndarray) -> None:
    """Raise ValueError unless e_k = raising[k], f_k = e_k^T and E_ii =
    diag(weights[:, i]) satisfy the Chevalley-Serre relations to
    CONSTRUCTION_TOL: the Cartan action on e_k, as its weight support;
    [e_k, f_l] = delta_kl (E_kk - E_{k+1,k+1}); [e_k, e_l] = 0 for |k - l| > 1;
    ad(e_k)^2 e_l = 0 for |k - l| = 1; the other relations are transposes.
    They present sl(d) (Serre's theorem; Humphreys, *Introduction to Lie
    Algebras*, 18.3) and sum_i E_ii is central, so the commutators E_ij
    then satisfy every gl(d) relation."""
    d = weights.shape[1]
    gap = weights[:, None, :] - weights[None, :, :]  # [b, a]: weight of b minus that of a

    def ad(x, y):
        return x @ y - y @ x

    for k, e in enumerate(raising):
        root = np.eye(d, dtype=int)[k] - np.eye(d, dtype=int)[k + 1]
        h = np.diag(weights[:, k] - weights[:, k + 1])
        defects = [e[(gap != root).any(axis=2)], ad(e, e.T) - h]
        for l, e_l in enumerate(raising[k + 1 :], start=k + 1):
            c = ad(e, e_l)
            # ad(e_l)^2 e_k = -[e_l, [e_k, e_l]]
            defects += [ad(e, e_l.T)] + ([ad(e, c), ad(e_l, c)] if l == k + 1 else [c])
        if not all(np.linalg.norm(x) < CONSTRUCTION_TOL for x in defects):
            raise ValueError("bad commutator")


@dataclass(frozen=True)
class IrrepRealization:
    """An SU(d) irrep in its Gelfand-Tsetlin basis.

    ``raising`` holds the raising operators E_{k,k+1} in the GT basis, shape
    (d-1, q, q); ``weights`` the integer weight of each basis vector.  The
    lowering operator E_{k+1,k} is the transpose of E_{k,k+1}, and E_kk is
    diag(weights[:, k]).  The basis is real and ordered by weight,
    lexicographically descending, highest weight first.  Its embedding in
    the tensor sites is ``transforms.canonical_embedding(label)``.
    """

    label: Staircase
    raising: np.ndarray
    weights: np.ndarray

    @property
    def d(self) -> int:
        return self.label.d

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def simple_generators(self) -> np.ndarray:
        """The stack (3d-2, q, q) of E_{k,k+1}, then E_{k+1,k}, then E_kk."""
        cartan = self.weights.T[:, :, None] * np.eye(self.dim)
        return np.concatenate([self.raising, self.raising.swapaxes(1, 2), cartan])

    def validate(self) -> None:
        _check_simple_generators(self.raising, self.weights)


def lead_phase(M: np.ndarray) -> complex:
    """|p| / p for p the first entry of M (row-major) of modulus > 1e-8, or
    1 if there is none: the factor that makes that entry real positive.
    """
    flat = M.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
    if abs(pivot) <= 1e-8:
        return 1.0
    return abs(pivot) / pivot


def canonical_path(gamma: Staircase) -> list[Staircase]:
    """Deterministic GT path from the empty staircase to gamma.

    Boxes of the positive part are added row by row, top to bottom; then
    boxes are removed choosing at each step the smallest row index that
    keeps the sequence weakly decreasing.
    """
    d = gamma.d
    path = [empty_staircase(d)]
    for row in range(d):
        for _ in range(max(gamma.entries[row], 0)):
            path.append(path[-1].bump(row, +1))
    cur = path[-1]
    while cur != gamma:
        for row in range(d):
            if cur.entries[row] <= gamma.entries[row]:
                continue
            if row == d - 1 or cur.entries[row] - 1 >= cur.entries[row + 1]:
                cur = cur.bump(row, -1)
                path.append(cur)
                break
        else:  # pragma: no cover - unreachable by construction
            raise RuntimeError(f"stuck while descending to {gamma}")
    return path


@functools.cache
def gt_patterns(gamma: Staircase, /) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The GT patterns of gamma, rows from level d (gamma) down to level 1,
    sorted by (weight, pattern), both descending.  Memoised per label; the
    tuple cannot be mutated through the cache.

    Row k - 1 interlaces row k: lambda_{k,i} >= lambda_{k-1,i} >=
    lambda_{k,i+1}.  Entry k of a pattern's weight is the sum of row k
    minus the sum of row k - 1.
    """
    patterns = [(gamma.entries,)]
    for _ in range(gamma.d - 1):
        patterns = [
            pat + (low,)
            for pat in patterns
            for low in itertools.product(*map(range, pat[-1][1:], [x + 1 for x in pat[-1]]))
        ]
    return tuple(sorted(patterns, key=lambda pat: (_pattern_weight(pat), pat), reverse=True))


def _pattern_weight(pattern: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    sums = [0] + [sum(row) for row in reversed(pattern)]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def _raising_coefficient(pattern: tuple[tuple[int, ...], ...], k: int, i: int) -> float:
    """<pattern + delta_{k,i}| E_{k,k+1} |pattern> for 0-based level k.

    With l_{k,i} = lambda_{k,i} - i, the square root of
    -prod_j (l_{k,i} - l_{k+1,j}) prod_j (l_{k,i} - l_{k-1,j} + 1)
    / prod_{j != i} (l_{k,i} - l_{k,j}) (l_{k,i} - l_{k,j} + 1).
    """
    # level 0 first, and an empty row after level d - 1 that ls[-1] reads at k = 0
    ls = [[x - j for j, x in enumerate(row)] for row in reversed(pattern)] + [[]]
    li = ls[k][i]
    num = -math.prod(li - x for x in ls[k + 1]) * math.prod(li - x + 1 for x in ls[k - 1])
    den = math.prod((li - x) * (li - x + 1) for j, x in enumerate(ls[k]) if j != i)
    return math.sqrt(num / den)


def box_block(lam: Staircase, s: Staircase) -> np.ndarray:
    """The block of Q_lam (x) C^d onto Q_s, s being lam plus a box, up to
    sign: rows ``gt_patterns(s)``, columns (pattern of lam, site).

    Site e_x adds a box at entry a_k of every level k = x..d of a pattern P,
    a_d being the row where s and lam differ, and each choice whose result
    P' is a pattern of s gives <s, P'| (lam, P) (x) e_x> = E prod_{k > x} T_k.
    With p_{k,i} = lambda_{k,i} + k - i of P (i 1-based), a = a_k, b = a_{k-1}:
    E^2 = prod_c (p_{x,a} - p_{x-1,c}) / prod_{c != a} (p_{x,a} - p_{x,c}),
    T_k^2 = prod_{c != a} (p_{k-1,b} - p_{k,c} + 1) prod_{c != b} (p_{k,a} - p_{k-1,c})
    / [prod_{c != a} (p_{k,a} - p_{k,c}) prod_{c != b} (p_{k-1,b} - p_{k-1,c} + 1)],
    and T_k < 0 exactly when b < a.  Only the final square root rounds.
    """
    d = lam.d
    index = {pat: b for b, pat in enumerate(gt_patterns(s))}
    W = np.zeros((len(index), dim_gl_irrep(lam) * d))
    r = next(i for i in range(d) if s.entries[i] != lam.entries[i])
    for col, pat in enumerate(gt_patterns(lam)):
        # p[k] is level k; E reads the empty p[0] at x = 1
        p = [[]] + [[v + k - i for i, v in enumerate(pat[d - k], 1)] for k in range(1, d + 1)]

        def prod(u, k, skip=None):
            return math.prod(u - c for i, c in enumerate(p[k]) if i != skip)

        # walk down from level d, raising entry a of level k under the raised
        # rows `top`; num / den is the integer square of the T_j, j > k, and
        # den takes E's and T_k's common prod_{c != a} (p_{k,a} - p_{k,c})
        stack = [(d, r, (), 1, 1, 1)]
        while stack:
            k, a, top, num, den, sign = stack.pop()
            top += (tuple(v + (i == a) for i, v in enumerate(pat[d - k])),)
            u = p[k][a]
            den *= prod(u, k, a)
            row = index.get(top + pat[d - k + 1 :])
            if row is not None:
                W[row, col * d + k - 1] = sign * math.sqrt(num * prod(u, k - 1) / den)
            for b in range(k - 1):
                v = p[k - 1][b] + 1
                num_b, den_b = num * prod(v, k, a) * prod(u, k - 1, b), den * prod(v, k - 1, b)
                stack.append((k - 1, b, top, num_b, den_b, -sign if b < a else sign))
    return W


@functools.cache
def canonical_realization(gamma: Staircase, /) -> IrrepRealization:
    """The irrep labelled by gamma on its GT patterns, in ``gt_patterns`` order.

    E_{k,k+1} raises one entry of row k by ``_raising_coefficient``, and the
    raising operators are checked against the Chevalley-Serre relations.
    No eigensolver runs.  Memoised per label.
    """
    d = gamma.d
    patterns = gt_patterns(gamma)
    q = len(patterns)
    if q != dim_gl_irrep(gamma):
        raise RuntimeError(f"{q} GT patterns of {gamma}, expected {dim_gl_irrep(gamma)}")
    index = {pat: a for a, pat in enumerate(patterns)}
    weights = np.array([_pattern_weight(pat) for pat in patterns], dtype=int)
    raising = np.zeros((d - 1, q, q))
    for a, pat in enumerate(patterns):
        for k in range(d - 1):
            for i in range(k + 1):
                raised = list(map(list, pat))
                raised[d - 1 - k][i] += 1
                b = index.get(tuple(map(tuple, raised)))
                if b is not None:
                    raising[k, b, a] = _raising_coefficient(pat, k, i)
    _check_simple_generators(raising, weights)
    for arr in (raising, weights):
        arr.flags.writeable = False
    return IrrepRealization(gamma, raising, weights)


def check_intertwining(T: np.ndarray, legs: list[np.ndarray], gens_b: np.ndarray) -> None:
    """Raise ValueError unless T X = X^(b) T on every simple generator X, to
    1e-8 in Frobenius norm; all stacks are ``simple_generators`` stacks.  The
    columns of T are a tensor product with one stack per factor in ``legs``;
    X acts on them by the Leibniz rule, each term on its own tensor leg."""
    Tt = T.reshape(len(T), *(g.shape[2] for g in legs))
    TA = sum(
        np.moveaxis(np.tensordot(Tt, g, axes=(leg, 1)), (-2, -1), (0, leg + 1))
        for leg, g in enumerate(legs, start=1)
    )
    resid = np.linalg.norm(TA.reshape(len(gens_b), *T.shape) - gens_b @ T, axis=(1, 2)).max()
    if resid > 1e-8:
        raise ValueError(f"intertwining residual {resid:.2e}; labels differ?")


def dual_generators(gens: np.ndarray) -> np.ndarray:
    """Generators of the dual representation: X -> -X^T on every matrix of
    the stack.

    Matches the conjugate-site action -e_ji used on conj C^d factors.
    """
    return -gens.swapaxes(-2, -1)


@functools.cache
def dual_structure(nu: Staircase, /) -> np.ndarray:
    """Real orthogonal Z with Z E_ij^(dual(nu)) = -(E_ij^(nu))^T Z.

    Z identifies the canonical realization of the dual label with the dual
    of the canonical realization of nu; it converts conjugate-transforming
    coordinates into canonical ones.  It is the signed permutation
    Z[P, P*] = (-1)^(sum of P below its top row), P* being P with every row
    reversed and negated, up to the sign ``lead_phase`` fixes; the
    intertwining relation is checked.
    """
    index = {pat: b for b, pat in enumerate(gt_patterns(nu.dual()))}
    Z = np.zeros((len(index), len(index)))
    for a, pat in enumerate(gt_patterns(nu)):
        star = tuple(tuple(-v for v in reversed(row)) for row in pat)
        Z[a, index[star]] = (-1) ** sum(map(sum, pat[1:]))
    Z *= lead_phase(Z)
    gens_a = canonical_realization(nu.dual()).simple_generators
    check_intertwining(Z, [gens_a], dual_generators(canonical_realization(nu).simple_generators))
    Z.flags.writeable = False
    return Z
