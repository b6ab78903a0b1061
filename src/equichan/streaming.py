"""Streamed execution of symmetric channels with resource accounting.

The executor emulates the streaming schedule: input sites are absorbed one
at a time through simple CG transforms with the label register measured and
forgotten, the irrep-level channel runs conditioned on the surviving label,
and output sites are emitted one at a time by inverse CG transforms along a
classically sampled GT path.  The irrep-level channel is the paper's
resource-state primitive: a coherent superposition of GT paths mu -> lam
drives one inverse CG step per auxiliary site, and the sites are traced.
No operation ever touches more than the irrep register, one site and the
path register; a structural validator checks this on the recorded
schedule.  Each step is recorded once, as a ``ScheduleStep`` naming its
CG kind, and the ledger's transform counts and peak live dimension are
read off the validated schedule.  The ledger reports register capacities
and transform counts of the algorithm being emulated, not the memory of
the emulator itself (which holds the full state).

The emulator runs the middle phase of every block by one route: the
embeddings and embed steps memoised by ``_path_superposition``,
contracted with psi and traced down to Q_mu.  Along GT paths the
embedding is the superposition sum_p a_p iota_p of per-site inverse CG
chains, one step per site; a one-box mu embeds along the one addition
gamma_bar -> lam in one step and traces the base.

Emission is the adjoint of Schur sampling: the isometry along a GT path
into mu is the adjoint of that path's rows in the Schur transform on n
sites.  The emulator therefore reads every emission isometry from the
cached ``schur_transform(n, 0, d)`` (so emission is subject to the dense
cap) and applies the transform block by block over its torus-weight
classes, as every row is a weight vector; the schedule and ledger still
count the algorithm's n - 1 one-site inverse CG steps.  Emission also
certifies the output on its irrep sectors (the sector floor) and the
executor then tests its entries and trace, so it returns a state or
raises ValueError.

Costs that the streaming model leaves symbolic (gate synthesis accuracy and
its log-power overhead) stay symbolic here: reports carry the factor
``log2^p(...)`` as a string and never evaluate it.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from equichan.channels import PSD_TOL, ExtremalSpec, irrep_channel
from equichan.channels import check_finite_unit_trace, check_input
from equichan.gtpaths import GtPath, _walk, enumerate_paths
from equichan.realize import canonical_realization
from equichan.staircases import (
    Staircase,
    box_label,
    dim_gl_irrep,
    lr_coeff,
    partitions_of,
)
from equichan.transforms import PathTransform, schur_transform, simple_cg

# The gate-synthesis exponent appearing in every polylog cost factor; it is
# kept as a symbol and nothing here evaluates it.
SYNTHESIS_EXPONENT_SYMBOL = "p"

# A block of Frobenius norm below this carries no weight: middle and emission skip it.
WEIGHTLESS_NORM = 1e-15

# Largest Frobenius distance between a middle-phase path superposition and the
# irrep channel's embedding that it reconstructs.
SUPERPOSITION_TOL = 1e-9

# Sample mode takes its uniform draws from the generator in blocks of this
# many; numpy's Generator returns the same doubles in blocks as one at a
# time, and memory stays O(CHUNK) for any number of trajectories.
CHUNK = 8192


# ---------------------------------------------------------------------------
# schedule and ledger
# ---------------------------------------------------------------------------


# The CG transform a step applies: none, a simple CG, a simple CG of a dual
# site, or an inverse CG; ResourceLedger.count tallies the last three.
CG_KINDS = ("none", "simple", "simple-dual", "inverse")


@dataclass(frozen=True)
class ScheduleStep:
    op: str
    registers: tuple[str, ...]
    live_dim: int
    cg: str = "none"


def validate_schedule(steps: list[ScheduleStep]) -> None:
    """Structural streaming constraints.

    Every step is an absorb, embed or emit step with a CG kind of CG_KINDS
    and touches at most the irrep register, the path register and a single
    site; input sites are consumed in increasing order, output sites
    emitted in decreasing order, and no site is touched twice.  Raises
    ValueError at the first violation.
    """
    last_in = 0
    next_out = None
    seen_sites = set()
    for s in steps:
        if s.op not in ("absorb", "embed", "emit"):
            raise ValueError(f"unknown op in {s}")
        if s.cg not in CG_KINDS:
            raise ValueError(f"unknown CG kind in {s}")
        sites = [r for r in s.registers if ":" in r]
        others = [r for r in s.registers if ":" not in r]
        if not set(others) <= {"Q", "path", "label"}:
            raise ValueError(f"bad registers in {s}")
        if len(sites) > 1:
            raise ValueError(f"step touches several sites: {s}")
        for site in sites:
            kind, num = site.split(":")
            num = int(num)
            if site in seen_sites:
                raise ValueError(f"site touched twice: {s}")
            seen_sites.add(site)
            if kind == "in":
                if num != last_in + 1:
                    raise ValueError(f"input consumed out of order: {s}")
                last_in = num
            elif kind == "out":
                if next_out is not None and num != next_out:
                    raise ValueError(f"output emitted out of order: {s}")
                next_out = num - 1
            elif kind != "aux":
                raise ValueError(f"unknown site kind in {s}")


@dataclass
class ResourceLedger:
    """Structural counts of the streaming schedule.

    ``count`` reads the CG counts and ``peak_live_dim`` off the steps; the
    phases write ``r``, ``r_prime`` and ``classical_samples``.
    """

    num_simple_cg: int = 0
    num_simple_dual_cg: int = 0
    num_inverse_cg: int = 0
    peak_live_dim: int = 1
    classical_samples: int = 0
    r: int = 0
    r_prime: int = 0

    def count(self, schedule: list[ScheduleStep]) -> None:
        """Set the CG counts and the peak live dimension from the steps."""
        kinds = Counter(s.cg for s in schedule)
        self.num_simple_cg = kinds["simple"]
        self.num_simple_dual_cg = kinds["simple-dual"]
        self.num_inverse_cg = kinds["inverse"]
        self.peak_live_dim = max((s.live_dim for s in schedule), default=1)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@functools.cache
def _capacity(t: int, d: int) -> int:
    """Largest irrep dimension the label register can hold after t sites."""
    if t <= 0:
        return 1
    return max(dim_gl_irrep(lam) for lam in partitions_of(t, d))


# ---------------------------------------------------------------------------
# streamed executor
# ---------------------------------------------------------------------------


def _absorb_phase(
    rho: np.ndarray, m: int, d: int, ledger: ResourceLedger, schedule: list
) -> dict[Staircase, np.ndarray]:
    """Feed input sites through simple CG transforms, decohering the labels.

    Every streamed run enters here, so this is where ``channels.check_input``
    tests the input.  Returns subnormalized block states per final label.
    The emulator array for label nu at step t has shape (q_nu * d^(m-t))^2
    and carries the not yet consumed sites; the algorithm's own live
    registers are only Q (x) one site.

    Each step contracts the CG matrix C on the (q_nu * d) tensor legs of
    the block and never forms C (x) 1 on the unconsumed sites: one GEMM
    applies C to the row leg, then each output block's rows C_b apply
    conj(C_b) to the column leg of that block's rows alone, so the
    off-diagonal blocks, which the label measurement discards, are never
    computed.
    """
    check_input(rho, d**m)
    box = box_label(d)
    sigma: dict[Staircase, np.ndarray] = {box: rho.astype(complex)}
    schedule.append(ScheduleStep("absorb", ("Q", "in:1"), d))
    ledger.r = max(ledger.r, 1)
    for t in range(2, m + 1):
        rest = d ** (m - t)
        live = _capacity(t - 1, d) * d
        schedule.append(ScheduleStep("absorb", ("Q", f"in:{t}", "label"), live, "simple"))
        nxt: dict[Staircase, np.ndarray] = {}
        for nu, blk in sigma.items():
            qd = dim_gl_irrep(nu) * d
            cg = simple_cg(nu, False)
            # C on the row (q.d) leg: one GEMM over the rows of blk
            left = (cg.matrix @ blk.reshape(qd, -1)).reshape(qd * rest, qd, rest)
            for b in cg.blocks:
                ledger.r = max(ledger.r, b.label.length)
                rows = left[b.offset * rest : (b.offset + b.size) * rest]
                # conj(C_b) on the column (q.d) leg of this block's rows only
                c_b = cg.matrix[b.offset : b.offset + b.size]
                piece = np.matmul(c_b.conj(), rows).reshape(b.size * rest, -1)
                if b.label in nxt:
                    nxt[b.label] += piece
                else:
                    nxt[b.label] = piece
        sigma = nxt
    return sigma


def _emit_steps(path: GtPath) -> list[tuple[Staircase, Staircase, bool]]:
    """Reverse path steps (prev label, next label, dual flag), last step first."""
    steps = []
    for t in range(len(path.steps) - 1, 0, -1):
        prev, nxt = path.steps[t - 1], path.steps[t]
        dual = nxt.size < prev.size
        steps.append((prev, nxt, dual))
    return steps


def streamed_apply(
    spec: ExtremalSpec,
    rho: np.ndarray,
    seed: int = 0,
    mode: str = "exact",
    trajectories: int = 10_000,
    return_schedule: bool = False,
):
    """Run the streaming schedule of an extremal channel on a state.

    mode="exact" sums the uniform path mixture of the emission phase
    exactly; mode="sample" draws GT paths with the hook-walk sampler and
    averages the given number of trajectories.  Returns (output, ledger),
    plus the recorded schedule when requested.  The output is a state or
    ValueError: ``rho`` must pass ``channels.check_input`` (positivity is
    not checked), the emission phase certifies the output's positivity on
    its irrep sectors, with the threshold and message of
    ``channels.check_state``, and ``check_finite_unit_trace`` tests it last.
    """
    m, n, d = spec.m, spec.n, spec.d
    if mode not in ("exact", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sample" and trajectories < 1:
        raise ValueError(f"need at least one trajectory, got {trajectories}")
    ledger = ResourceLedger()
    schedule: list[ScheduleStep] = []

    sigma = _absorb_phase(rho, m, d, ledger, schedule)
    tau = _middle_phase(spec, sigma, ledger, schedule)
    out = _emission_phase(
        tau, n, d, ledger, schedule, mode=mode, seed=seed, trajectories=trajectories
    )
    check_finite_unit_trace(out)
    validate_schedule(schedule)
    ledger.count(schedule)
    if return_schedule:
        return out, ledger, schedule
    return out, ledger


def _middle_phase(
    spec: ExtremalSpec,
    sigma: dict[Staircase, np.ndarray],
    ledger: ResourceLedger,
    schedule: list,
) -> dict[Staircase, np.ndarray]:
    """Apply the per-label irrep channel of each triple lam -> mu.

    A label whose block norm is below WEIGHTLESS_NORM is skipped: no step,
    no r_prime.  Every other block records the embed steps of its memoised
    embeddings (``_path_superposition``), contracts them with psi into one
    isometry Q_lam -> Q_mu (x) traced legs, and traces those legs.  A step
    on a site takes the next auxiliary site; the single-box case has one
    step on the irrep and path registers alone.
    """
    tau: dict[Staircase, np.ndarray] = {}
    aux_counter = count(1)
    for lam, blk in sigma.items():
        if np.linalg.norm(blk) < WEIGHTLESS_NORM:
            continue
        t = spec.triple(lam)
        ledger.r_prime = max(ledger.r_prime, t.mu.length)
        sup = _path_superposition(lam, t.mu, t.gamma)
        for cg, live, on_site in sup.steps:
            aux = (f"aux:{next(aux_counter)}",) if on_site else ()
            schedule.append(ScheduleStep("embed", ("Q", *aux, "path"), live, cg))
        # iota' = sum_a psi_a E_a; tr_traced(iota' blk iota'^dag) in two GEMMs
        emb = np.tensordot(t.psi, sup.embeddings, 1)
        q_mu = dim_gl_irrep(t.mu)
        out = (emb @ blk).reshape(q_mu, -1) @ emb.reshape(q_mu, -1).conj().T
        tau[t.mu] = tau.get(t.mu, 0) + out
    return tau


class _PathSuperposition(NamedTuple):
    """The middle-phase embeddings of one triple (lam, mu, gamma).

    ``embeddings[a]`` is the isometry Q_lam -> Q_mu (x) traced legs of the
    multiplicity basis vector e_a, shape (c, q_mu * dim traced, q_lam),
    read-only; ``steps`` holds (CG kind, live dimension, on a site) per
    embed step, in emission order.
    """

    embeddings: np.ndarray
    steps: tuple[tuple[str, int, bool], ...]


def _path_isometry(path: GtPath) -> np.ndarray:
    """iota_p: Q_end -> Q_start (x) sites, the chain of the path's inverse CG blocks.

    Each reversed step prev -> nxt applies the adjoint of the rows of nxt in
    ``simple_cg(prev, dual)`` to the irrep leg; the new site is the leg
    just after the irrep, so the sites come out in path order.
    """
    q_end = dim_gl_irrep(path.end)
    iso = np.eye(q_end)
    for prev, nxt, dual in _emit_steps(path):
        R = simple_cg(prev, dual).block_rows(nxt)
        iso = (R.conj().T @ iso.reshape(R.shape[0], -1)).reshape(-1, q_end)
    return iso


def _path_amplitudes(iso: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """a_p = tr(iota_p^dag target) / q_lam for one path and a stack of targets."""
    return np.tensordot(targets, iso.conj(), 2) / iso.shape[1]


@functools.cache
def _path_superposition(
    lam: Staircase, mu: Staircase, gamma: Staircase
) -> _PathSuperposition:
    """The embeddings and embed steps that realize the irrep channel lam -> mu.

    Single-box case (mu one box, gamma not empty, so c = 1): the adjoint
    of lam's rows in ``simple_cg(gamma_bar, False)``, its C^d = Q_mu leg
    first and Q_gamma_bar traced, in one inverse CG step on no site.

    Otherwise one step per site of the GT paths mu -> lam, with k additions
    and l removals for the k positive and l negative boxes of gamma_bar.
    The channel of (lam, mu, gamma, psi) traces the sites of
    iota' = (1 (x) J) iota, where iota is the embed-trace isometry of
    ``irrep_channel`` and J the embedding of the canonical realization of
    gamma_bar, whose sites are those of the paths.  By Schur's lemma iota' = sum_p a_p iota_p over
    those paths, with a_p = tr(iota_p^dag iota') / q_lam; iota is linear in
    psi, so the superposition is stored for each multiplicity basis vector
    e_a.  The paths are taken one at a time, so only one iota_p is held.
    A sector with one path (every block with gamma empty, whose path has no
    step) is that path: its phase leaves the channel unchanged and no
    overlap is taken.  Raises RuntimeError if a superposition is farther
    than SUPERPOSITION_TOL from iota'.  Memoised per label triple.
    """
    gamma_bar = gamma.dual()
    if mu == box_label(lam.d) and not gamma.is_empty:
        R = simple_cg(gamma_bar, False).block_rows(lam)
        q_base, d = dim_gl_irrep(gamma_bar), lam.d
        # the rows of R^dag run over (base, site); the site is Q_mu, so it goes first
        embeddings = R.conj().T.reshape(q_base, d, -1).transpose(1, 0, 2)
        embeddings = embeddings.reshape(1, d * q_base, -1)
        embeddings.flags.writeable = False
        return _PathSuperposition(embeddings, (("inverse", q_base * d, False),))
    paths = enumerate_paths(mu, gamma_bar.pos_size, gamma_bar.neg_size)[lam]
    if len(paths) == 1:
        embeddings = _path_isometry(paths[0])[None]
    else:
        c = lr_coeff(lam.dual(), mu, gamma)
        J = canonical_realization(gamma_bar).embedding
        q_lam = dim_gl_irrep(lam)
        targets = np.stack(
            [
                np.matmul(J, np.stack(irrep_channel(lam, mu, gamma, e).ops, axis=1))
                for e in np.eye(c)
            ]
        ).reshape(c, -1, q_lam)
        embeddings = np.zeros_like(targets)
        for p in paths:
            iso = _path_isometry(p)
            embeddings += _path_amplitudes(iso, targets)[:, None, None] * iso
        resid = max(np.linalg.norm(e - t) for e, t in zip(embeddings, targets))
        if resid > SUPERPOSITION_TOL:
            raise RuntimeError(
                f"path superposition {lam} -> {mu} misses the irrep channel by {resid:.2e}"
            )
    embeddings.flags.writeable = False
    steps = tuple(
        (
            "simple-dual" if col[0][2] else "inverse",
            lam.d * max(dim_gl_irrep(prev) for prev, _, _ in col),
            True,
        )
        for col in zip(*(_emit_steps(p) for p in paths))
    )
    return _PathSuperposition(embeddings, steps)


def _emission_phase(
    tau: dict[Staircase, np.ndarray],
    n: int,
    d: int,
    ledger: ResourceLedger,
    schedule: list,
    mode: str,
    seed: int,
    trajectories: int,
) -> np.ndarray:
    """Uniform (or sampled) mixture over GT paths of the inverse transforms.

    The isometry along path a into mu is the adjoint of that path's rows
    R_a in the Schur transform S on n sites, so every emission operator is
    read from the cached ``schur_transform(n, 0, d)``.  Exact mode weights
    every path of a sector by w_a = 1/p_mu.  Sample mode draws one path per
    label and trajectory with one whole-path hook walk over uniforms drawn
    in blocks of CHUNK (``_draw_paths``; the draws of ``sample_gt_path``
    on a generator of the same seed, draw for draw), counts the draws per
    path and weights each drawn path by w_a = count/trajectories.  The
    output is sum_a w_a R_a^dag tau_mu R_a = S^T T, with T holding
    w_a tau_mu R_a in the rows of path a: one batched matmul per sector
    fills T.  S is real and block diagonal by torus weight
    (``PathTransform.weight_blocks``), so the output rows of each weight
    class are U_c^T T[rows_c], one real GEMM over the class's filled rows;
    S is never applied as a dense d^n x d^n product.

    The output is certified on the same sectors.  S is real orthogonal, so
    the Hermitian part of the output is sum_a w_a R_a^T H_mu R_a with
    H_mu = (tau_mu + tau_mu^dag)/2, and its spectrum is the w_a eig(H_mu)
    over the filled paths a together with zeros.  The sector floor, the
    minimum of w_a lambda_min(H_mu) over the filled paths of each sector
    with weight, is therefore its smallest eigenvalue whenever that is
    negative; one ``eigvalsh`` of at most q_mu x q_mu per sector finds it.
    Raises ValueError("output not positive semidefinite: ...") when the
    floor is at or below -PSD_TOL, the threshold and message of the dense
    test ``channels.check_state``.
    """
    out_dim = d**n
    for j in range(n, 1, -1):
        live = _capacity(j - 1, d) * d
        schedule.append(ScheduleStep("emit", ("Q", f"out:{j}", "path"), live, "inverse"))
    S = schur_transform(n, 0, d)
    if mode == "sample":
        drawn = _draw_paths(tau, S, seed, trajectories, ledger)
    # T is indexed by the rows of S; only the rows marked filled are written
    T = np.empty((out_dim, out_dim), dtype=complex)
    filled = np.zeros(out_dim, dtype=bool)
    floor = np.inf
    for mu, blk in tau.items():
        if np.linalg.norm(blk) < WEIGHTLESS_NORM:
            continue
        sector = S.sector(mu)
        p, q = sector.p_dim, sector.q_dim
        if mode == "exact":
            paths, weights = slice(None), np.full(p, 1 / p)
        else:
            paths, weights = drawn[mu]
        span = slice(sector.offset, sector.offset + sector.size)
        rows = S.matrix[span].reshape(p, q, out_dim)[paths]
        # w_a tau_mu on the q leg of each path, real and imaginary parts
        # stacked, so that the batched matmul is real
        scaled = np.concatenate([blk.real, blk.imag]) * weights[:, None, None]
        X = np.matmul(scaled, rows)
        slab = T[span].reshape(p, q, out_dim)
        slab.real[paths] = X[:, :q]
        slab.imag[paths] = X[:, q:]
        filled[span].reshape(p, q)[paths] = True
        lowest = np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0]
        floor = min(floor, (weights * lowest).min())
    if floor <= -PSD_TOL:
        raise ValueError(f"output not positive semidefinite: {floor:.2e}")
    out = np.zeros((out_dim, out_dim), dtype=complex)
    T_re, out_re = T.view(float), out.view(float)
    for wb in S.weight_blocks:
        live = filled[wb.rows]
        if live.any():
            out_re[wb.cols] = wb.matrix[live].T @ T_re[wb.rows[live]]
    return out


def _draw_paths(
    tau: dict[Staircase, np.ndarray],
    S: PathTransform,
    seed: int,
    trajectories: int,
    ledger: ResourceLedger,
) -> dict[Staircase, tuple[list[int], np.ndarray]]:
    """Hook-walk paths per label: drawn path indices and their frequencies.

    Each trajectory draws one path per label of tau, in tau's order, with
    one ``gtpaths._walk`` from the label's row lengths.  The uniforms
    come from one ``np.random.default_rng(seed)`` in blocks of CHUNK,
    chained into one stream, so the paths and draws are those of
    ``sample_gt_rows`` on a generator of the same seed; the ledger records
    the number of draws the walks used.
    """
    gen = np.random.default_rng(seed)
    draws = chain.from_iterable(iter(lambda: gen.random(CHUNK).tolist(), None))
    tallies: dict[Staircase, Counter] = {mu: Counter() for mu in tau}
    walks = [
        (tuple(e for e in mu.entries if e > 0), tally) for mu, tally in tallies.items()
    ]
    used = 0
    for _ in range(trajectories):
        for rows, tally in walks:
            path, n = _walk(rows, draws)
            tally[path] += 1
            used += n
    ledger.classical_samples = used
    drawn = {}
    for mu, tally in tallies.items():
        index = S.sector(mu).row_index
        paths = [index[rows] for rows in tally]
        drawn[mu] = (paths, np.fromiter(tally.values(), float) / trajectories)
    return drawn


# ---------------------------------------------------------------------------
# symbolic resource estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostRow:
    phase: str
    transforms: int
    memory_factor: int
    gate_factor: int
    register_bits: int
    symbolic: str


@dataclass
class CostReport:
    rows: list[CostRow]

    @property
    def memory_factor(self) -> int:
        return max(r.memory_factor for r in self.rows)

    @property
    def gate_factor(self) -> int:
        return sum(r.gate_factor for r in self.rows)

    def table(self) -> str:
        header = f"{'phase':<12}{'transforms':>11}{'mem':>8}{'gates':>9}{'bits':>7}  factor"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.phase:<12}{r.transforms:>11}{r.memory_factor:>8}"
                f"{r.gate_factor:>9}{r.register_bits:>7}  {r.symbolic}"
            )
        lines.append(
            f"{'total':<12}{'':>11}{self.memory_factor:>8}{self.gate_factor:>9}"
        )
        return "\n".join(lines)

    def as_records(self) -> list[dict]:
        return [dataclasses.asdict(r) for r in self.rows]


def _logp(args: str) -> str:
    return f"log2^{SYNTHESIS_EXPONENT_SYMBOL}({args})"


def resource_estimate(
    m: int, n: int, d: int, r: int, r_prime: int, k: int, l: int
) -> CostReport:
    """Structural cost counts for a streamed symmetric channel.

    r and r_prime bound the staircase lengths on the absorption and emission
    sides; (k, l) are the middle-phase path steps.  The polylog synthesis
    factor stays symbolic in every row.
    """
    if not (1 <= r <= d and 1 <= r_prime <= d):
        raise ValueError("need 1 <= r, r_prime <= d")
    import math

    r_mid = min(d, max(r, r_prime) + k)
    bits_in = r * max(1, math.ceil(math.log2(m + 1))) if m else 0
    bits_out = r_prime * max(1, math.ceil(math.log2(n + 1))) if n else 0
    bits_mid = r_mid * max(1, math.ceil(math.log2(m + k + 1)))
    rows = [
        CostRow(
            "absorb",
            max(m - 1, 0),
            r * d,
            m * r**3 * d,
            bits_in,
            f"m*r^3*d*{_logp('d,m,1/eps')}",
        ),
        CostRow(
            "middle",
            k + l,
            d * (r_mid + k + l),
            (k + l) * d * r_mid**3,
            bits_mid,
            f"(k+l)*d*rt^3*{_logp('d,m,n,k,l,1/eps')}",
        ),
        CostRow(
            "emit",
            max(n - 1, 0),
            r_prime * d,
            n * r_prime**3 * d,
            bits_out,
            f"n*r'^3*d*{_logp('d,n,1/eps')}",
        ),
    ]
    return CostReport(rows)


def application_estimate(task: str, m: int, n: int, d: int, r: int | None = None):
    """The headline (memory factor, gate factor) pair for the three tasks.

    Raises ValueError naming m for m < 1: every task streams at least one
    input site.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 input sites, got m={m}")
    if task == "symmetrize":
        r = min(m, d) if r is None else r
        report = resource_estimate(m, m, d, r, r, 0, 0)
        return {
            "task": task,
            "memory_factor": r * d,
            "gate_factor": m * r**3 * d,
            "memory": f"O(r*d*{_logp('d,m,1/eps')})",
            "gates": f"O(m*r^3*d*{_logp('d,m,1/eps')})",
            "report": report,
        }
    if task == "clone":
        if n is None or not 0 < m < n:
            raise ValueError("cloning needs 0 < m < n")
        report = resource_estimate(m, n, d, 1, 1, 0, n - m)
        return {
            "task": task,
            "memory_factor": d,
            "gate_factor": n * d,
            "memory": f"O(d*{_logp('d,n,1/eps')})",
            "gates": f"O(n*d*{_logp('d,n,1/eps')})",
            "report": report,
        }
    if task == "purify":
        report = resource_estimate(m, 1, d, min(m, d), 1, 1, 0)
        return {
            "task": task,
            "memory_factor": d * d,
            "gate_factor": m * d**4,
            "memory": f"O(d^2*{_logp('d,m,1/eps')})",
            "gates": f"O(m*d^4*{_logp('d,m,1/eps')})",
            "report": report,
        }
    raise ValueError(f"unknown task {task!r}")
