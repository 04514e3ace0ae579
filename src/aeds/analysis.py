"""Analytic machinery: stationary distributions, exact average code lengths,
closed-form reduction/redundancy functions, and numeric bound checks.

Closed-form evaluators are deliberately kept separate from the linear
solvers so each side can serve as the other's oracle in tests.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .codec import walk_lanes
from .errors import AlphabetMismatch, KindMismatch, NoConvergence, NotErgodic
from .model import (PACK_SLICE, SourceDistribution, entropy,
                    relative_entropy)
from .prefix_codes import SIGMA, phased_in_mean_length, phased_in_redundancy

LG_E = math.log2(math.e)

DIRECT_SOLVE_LIMIT = 1024
POWER_ITER_LIMIT = 10 ** 6
POWER_ITER_RESIDUAL = 1e-12
BICGSTAB_RESIDUAL = 1e-15
MC_BATCHES = 100       # Monte Carlo lanes, one batch of the standard error
MC_WARMUP = 1000       # steps each lane runs before its bits count
MC_ROWS = 1 << 10      # counted steps of all lanes drawn at a time
DRAW_BUCKETS = 1 << 12  # equal slices of [0, 1) in the draw table
GAMMA_SWEEP = (3, 4, 8, 16)

# Symbols up to which ``_step`` writes Q(x) p(s) a column at a time: an
# outer product (einsum, the fastest measured) pays a loop per state, and
# took 1.1-3.9 times as long as the strided column writes at 2-4 symbols,
# 0.3-0.9 times from 6 symbols on (N = 512 to 8192).
COLUMN_STEP_SYMBOLS = 4


# ---------------------------------------------------------------------------
# stationary distribution


@dataclass(frozen=True)
class StationaryReport:
    """Stationary state probabilities plus both average-length views."""
    probs: tuple
    method: str
    residual: float
    mean_bits_encoder_view: float
    mean_bits_decoder_view: float
    skipped_states: tuple = ()

    @property
    def mean_bits(self):
        return self.mean_bits_encoder_view


def _step(flat, p, q, out):
    """State weights after one more symbol: Q(x) p(s) moves to F(x, s).

    ``flat`` lists F in x-major order, ``p`` the symbol probabilities, and
    ``out``, an (N, |A|) float array, receives the products Q(x) p(s).
    One bincount adds them cell after cell in that x-major order.  The
    order is fixed on purpose: it decides the last bits of every
    iterative solve, and above DIRECT_SOLVE_LIMIT states the case1/case2
    builders rank near-equal members by the power iteration's bits, so
    another order (a sum per state, or slices) would change their
    tables.  The products are the same floats as ``np.repeat(q, |A|) *
    np.tile(p, N)``, written into ``out`` instead of two new arrays: as
    one outer product, or a column at a time for at most
    ``COLUMN_STEP_SYMBOLS`` symbols."""
    if len(p) <= COLUMN_STEP_SYMBOLS:
        for s in range(len(p)):
            np.multiply(q, p[s], out=out[:, s])
    else:
        np.einsum("i,j->ij", q, p, out=out)
    return np.bincount(flat, weights=out.ravel(), minlength=len(q))


def _normalized(q):
    q = np.maximum(q, 0.0)
    q /= q.sum()
    return q


def _solve_direct(flat, w, n):
    """The dense solve; ``w`` holds p once per state, in the x-major order
    of ``flat``."""
    # entry (to, from) of P^T sits at flat index to * n + from
    a = np.bincount(flat * n + np.repeat(np.arange(n), len(flat) // n),
                    weights=w, minlength=n * n).reshape(n, n)
    diagonal = 1.0 - a.diagonal()
    np.subtract(0.0, a, out=a)  # I - P^T in place: 0 - a off the diagonal
    np.fill_diagonal(a, diagonal)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    q = np.linalg.solve(a, b)
    check = a @ q - b
    if float(np.max(np.abs(check))) > 1e-12 * n:
        warnings.warn(f"balance system is ill-conditioned "
                      f"(solve residual {np.max(np.abs(check)):.2e})",
                      RuntimeWarning, stacklevel=4)
    return _normalized(q)


def _solve_power(step, n):
    q = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_LIMIT):
        nxt = step(q)
        nxt /= nxt.sum()
        residual = float(np.max(np.abs(nxt - q)))
        q = nxt
        if residual <= POWER_ITER_RESIDUAL:
            return q
    raise NoConvergence(residual, POWER_ITER_LIMIT)


def _broken(x):
    return not (x and math.isfinite(x))


def _bicgstab_cycle(apply, q, r, limit):
    """Bi-CGSTAB (van der Vorst, 1992) from ``q`` with residual ``r``, both
    updated in place, shadowing the residual it starts from.  Returns the
    number of iterations run when the residual falls to BICGSTAB_RESIDUAL,
    a scalar breaks down (zero or not finite) or ``limit`` is reached."""
    rh, d, v = r.copy(), np.zeros(len(r)), np.zeros(len(r))
    rho = alpha = omega = 1.0
    for i in range(limit):
        rho, last = float(rh @ r), rho
        if _broken(rho):
            return i
        d = r + rho / last * alpha / omega * (d - omega * v)
        v = apply(d)
        rv = float(rh @ v)
        if _broken(rv):
            return i
        alpha = rho / rv
        q += alpha * d
        r -= alpha * v
        if np.max(np.abs(r)) <= BICGSTAB_RESIDUAL:
            return i + 1
        t = apply(r)
        tt = float(t @ t)
        omega = 0.0 if _broken(tt) else float(t @ r) / tt
        if _broken(omega):
            return i + 1
        q += omega * r
        r -= omega * t
        if np.max(np.abs(r)) <= BICGSTAB_RESIDUAL:
            return i + 1
    return limit


def _solve_bicgstab(step, n):
    """Solve the bordered balance system that ``_solve_direct`` factors,
    I - P^T with its last row replaced by the normalization, by Krylov
    iterations that apply it one ``_step`` at a time, from uniform Q.  A
    breakdown restarts the iteration from where it stands; a restart that
    makes no progress, or 2N + 64 iterations in all, raise NoConvergence."""
    def apply(v):
        out = v - step(v)
        out[-1] = v.sum()
        return out

    q = np.full(n, 1.0 / n)
    r = -apply(q)
    r[-1] += 1.0
    limit, done, ran = 2 * n + 64, 0, None
    while not (residual := float(np.max(np.abs(r)))) <= BICGSTAB_RESIDUAL:
        if ran == 0 or done == limit:
            raise NoConvergence(residual, done)
        ran = _bicgstab_cycle(apply, q, r, limit - done)
        done += ran
    return _normalized(q)


def _solve_chain(nexts, p, method):
    """Solve Q = QP for the ergodic chain of a next-state array.  Returns
    Q, the method used and the residual of one more step."""
    if method == "auto":
        method = ("direct-solve" if len(nexts) <= DIRECT_SOLVE_LIMIT
                  else "bicgstab")
    iterate = {"power-iteration": _solve_power, "bicgstab": _solve_bicgstab}
    if method != "direct-solve" and method not in iterate:
        raise ValueError(f"unknown method {method!r}")
    # bincount takes intp indices: convert the int32 table once, not per step
    n, probs = len(nexts), np.array(p.probs)
    flat, out = np.asarray(nexts, dtype=np.intp).ravel(), np.empty(nexts.shape)

    def step(q):
        return _step(flat, probs, q, out)
    if method == "direct-solve":
        out[:] = probs
        q = _solve_direct(flat, out.ravel(), n)
    else:
        q = iterate[method](step, n)
    return q, method, float(np.max(np.abs(step(q) - q)))


def _require_alphabet(table, p):
    if tuple(p.symbols) != table.symbols:
        raise AlphabetMismatch("distribution and table alphabets differ")


def _require_ergodic(table, what):
    report = table.ergodicity()
    if not report.ergodic:
        raise NotErgodic(f"{what} needs an ergodic chain: {report}")


def _decoder_view(table, probs, q):
    """Average length grouped by decoder state: the mean length of the
    codewords each state parses, weighted by Q of that state.  States with
    Q below 1e-300 are skipped and returned.  Each cell's share
    Q(x) p(s) len / Q(F(x, s)) is computed in place, ``PACK_SLICE`` cells
    at a time; a skipped state's cells divide by infinity to zero."""
    n, m = table.nexts.shape
    into = table.nexts.ravel()
    flow = np.einsum("i,j->ij", q, probs)
    flow *= table.lengths
    flow = flow.ravel()
    for i in range(0, len(flow), PACK_SLICE):
        part = slice(i, i + PACK_SLICE)
        below = q.take(into[part])
        below[below < 1e-300] = np.inf
        flow[part] /= below
    per_state = np.bincount(into, weights=flow, minlength=n)
    skipped = (q < 1e-300) & (np.bincount(into, minlength=n) > 0)
    return float(q @ per_state), tuple(np.flatnonzero(skipped).tolist())


def stationary_distribution(table, p, method="auto"):
    """Solve Q = QP for the encoding chain driven by i.i.d. symbols.

    Both solvers of ``method="auto"`` take the balance equations with one
    replaced by normalization: chains of up to DIRECT_SOLVE_LIMIT states
    go through a dense partial-pivot solve ("direct-solve"), larger ones
    through Bi-CGSTAB, a Krylov solver that needs only one pass over the
    table per product ("bicgstab").  "power-iteration" stays available on
    request.  The two average-length representations (grouped by encoder
    state and by decoder state) are both evaluated.
    """
    _require_alphabet(table, p)
    _require_ergodic(table, "the stationary distribution")
    q, method, residual = _solve_chain(table.nexts, p, method)
    probs = np.array(p.probs)
    return StationaryReport(tuple(q), method, residual,
                            float(q @ (table.lengths @ probs)),
                            *_decoder_view(table, probs, q))


def symbol_masses(table, p, q):
    """Per-symbol stationary mass: sum of Q(x) over the states reached by
    encoding that symbol (equals p(s) for state-divided tables)."""
    part = table.saeds_partition()
    return None if part is None else [math.fsum(q[x] for x in block)
                                      for block in part.subsets]


# ---------------------------------------------------------------------------
# closed-form stationary distributions


def closed_form_stationary(kind, right_weight, n_states=None):
    """Stationary probabilities of the two tree-based layouts.

    kind "type1": Q(j) = w^(j-1)(1-w)/(1-w^N) over j = 1..N.
    kind "type2": the five-state closed form; n_states must be 5 or None.
    """
    w = float(right_weight)
    if not 0.5 <= w < 1.0:
        raise ValueError(f"right weight {w} outside [0.5, 1)")
    if kind == "type1":
        if n_states is None or n_states < 2:
            raise ValueError("type1 needs n_states >= 2")
        denom = 1.0 - w ** n_states
        return tuple(w ** (j - 1) * (1.0 - w) / denom
                     for j in range(1, n_states + 1))
    if kind == "type2":
        if n_states not in (None, 5):
            raise ValueError("type2 is a five-state layout")
        tail = 1.0 + w + w * w
        return ((1.0 - w) / (2.0 - w),
                (1.0 - w) ** 2 / (2.0 - w),
                w / tail,
                w * w / tail,
                w ** 3 / tail)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# reductions and redundancies


def type1_length_drop_raw(right_weight, n_states):
    """Unclamped average-length drop of the N-state chain layout.

    With k = ceil(lg N):
      (1-w^(N-1))/(1-w^N) * w + (1-w^(2^k-N))(1-w)/(1-w^N) - k(1-w)
    """
    w = float(right_weight)
    n = n_states
    if n < 2:
        raise ValueError("need at least two states")
    if not 0.0 < w < 1.0:
        raise ValueError(f"right weight {w} outside (0, 1)")
    k = (n - 1).bit_length()
    denom = 1.0 - w ** n
    first = (1.0 - w ** (n - 1)) / denom * w
    second = (1.0 - w ** ((1 << k) - n)) * (1.0 - w) / denom
    return first + second - k * (1.0 - w)


def delta_type1(right_weight, n_states):
    """Clamped reduction of the N-state layout relative to its code tree."""
    return max(type1_length_drop_raw(right_weight, n_states), 0.0)


def type2_length_drop_raw(right_weight):
    w = float(right_weight)
    return ((w ** 3 - w * w + 2.0 * w - 1.0)
            / ((2.0 - w) * (1.0 + w + w * w)))


def delta_type2(right_weight):
    """Clamped reduction of the five-state layout."""
    return max(type2_length_drop_raw(right_weight), 0.0)


def omega_type1():
    """Smallest right weight with positive two-state reduction."""
    return (math.sqrt(5.0) - 1.0) / 2.0


def omega_type2():
    """Five-state threshold: the real root of w^3 - w^2 + 2w - 1 (Cardano)."""
    u = ((11.0 + math.sqrt(621.0)) / 54.0) ** (1.0 / 3.0)
    return 1.0 / 3.0 + u - 5.0 / (9.0 * u)  # the cube roots multiply to -5/9


def binary_entropy(u):
    if u in (0.0, 1.0):
        return 0.0
    return -u * math.log2(u) - (1.0 - u) * math.log2(1.0 - u)


def huffman_worst_redundancy(p1):
    """Worst-case Huffman redundancy for a dominant symbol weight p1 >= 0.5:
    2 - p1 - h(p1)."""
    return 2.0 - p1 - binary_entropy(p1)


def binary_redundancy(r, kind="huffman", n_states=2):
    """Redundancy on a two-symbol source with p(a) = r >= 0.5."""
    base = 1.0 - binary_entropy(r)
    if kind == "huffman":
        return base
    if kind == "type1":
        return base - delta_type1(r, n_states)
    if kind == "type2":
        return base - delta_type2(r)
    raise ValueError(f"unknown kind {kind!r}")


def uniform_huffman_length(m):
    """Average Huffman length on a uniform m-ary source: k + 1 - 2^k/m."""
    if m < 1:
        raise ValueError("need at least one item")
    return phased_in_mean_length(m)


def uniform_huffman_right_weight(m):
    """Largest right-subtree weight a uniform-source Huffman tree allows."""
    if m < 2:
        raise ValueError("need at least two items")
    k = (m - 1).bit_length()
    if m >= 3 * (1 << k) // 4:
        return (1 << (k - 1)) / m
    return (m - (1 << (k - 2))) / m


@dataclass(frozen=True)
class UniformSplitResult:
    size: int
    right_items: int
    left_items: int
    mean_bits: float
    reduction: float       # against the uniform-source Huffman code
    redundancy: float      # against lg M
    right_weight: float


def uniform_split_length(m, m_right, variant="type1", n_states=2):
    """Average bits of the split tree minus the layout's reduction."""
    tree_bits = (1.0
                 + (m_right / m) * uniform_huffman_length(m_right)
                 + (1.0 - m_right / m) * uniform_huffman_length(m - m_right))
    w = m_right / m
    if variant == "type1":
        drop = delta_type1(w, n_states)
    elif variant == "type2":
        drop = delta_type2(w)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return tree_bits - drop


def optimal_uniform_split(m, n_states=2, variant="type1"):
    """Exhaustive search over ceil(M/2) <= M_R <= M-1; smallest M_R wins ties."""
    if m < 2:
        raise ValueError("need at least two items")
    best = None
    for m_right in range((m + 1) // 2, m):
        bits = uniform_split_length(m, m_right, variant, n_states)
        if best is None or bits < best[0] - 1e-15:
            best = (bits, m_right)
    bits, m_right = best
    base = uniform_huffman_length(m)
    return UniformSplitResult(m, m_right, m - m_right, bits,
                              base - bits, bits - math.log2(m), m_right / m)


# ---------------------------------------------------------------------------
# target distributions for the large-N analysis


def q_star(n_states):
    """Target stationary weights lg((N+i)/(N+i-1)); telescopes to one."""
    return tuple(math.log2((n_states + i) / (n_states + i - 1))
                 for i in range(1, n_states + 1))


def q_harmonic(n_states):
    """Normalized harmonic weights theta/(N+i-1)."""
    raw = [1.0 / (n_states + i - 1) for i in range(1, n_states + 1)]
    theta = 1.0 / math.fsum(raw)
    return tuple(theta * v for v in raw)


def q_star_shifted(n_states, gamma):
    """The slack target lg((N+max(i-gamma,0))/(N+max(i-gamma,0)-1)).

    The shift floors at zero rather than one: that is what the sandwich
    inequalities need at the first few states, where flooring at one would
    collapse the bound to equality.
    """
    out = []
    for i in range(1, n_states + 1):
        j = max(i - gamma, 0)
        out.append(math.log2((n_states + j) / (n_states + j - 1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True)
class BoundReport:
    name: str
    left: float
    right: float
    holds: bool
    slack: float
    details: dict = field(default_factory=dict, compare=False)


def _bound(name, left, right, tol=1e-9, **details):
    slack = right - left
    return BoundReport(name, left, right, slack >= -tol, slack, details)


def check_bound(table, p, which, report=None, layout=None,
                gamma=4, eta=1.0, rate="inverse"):
    """Evaluate one of the analytic upper bounds against the solved chain.

    ``which`` selects the bound; every bound needs a state-divided table
    over the alphabet of ``p``, all checked before the chain is solved.
    "target-identity" reads only the layout, H and D and never solves.
    ``report`` may carry a precomputed StationaryReport.  Measured
    quantities (the per-state masses entering the case-2 and case-3
    corrections) always come from the solved chain, never assumptions.
    """
    if which not in ("case1", "case2", "case3", "target-identity",
                     "target-gap", "large-n"):
        raise KindMismatch(f"unknown bound {which!r}")
    _require_alphabet(table, p)
    owner = table.state_symbols()
    if owner is None:
        raise KindMismatch("table is not state-divided")
    n = table.n_states
    H = entropy(p)
    ratio = [c / n for c in np.bincount(owner, minlength=len(p)).tolist()]
    D = relative_entropy(p, SourceDistribution(p.symbols, ratio))

    if which == "target-identity":
        # With the telescoping target weights in place of the solved chain,
        # the interval layout's average length collapses to H + D exactly.
        if layout is None:
            raise KindMismatch("target-identity needs the interval layout")
        target = q_star(n)
        ideal = 0.0
        for s, prob in enumerate(p.probs):
            plan = layout.per_symbol[s]
            tail = math.fsum(target[i] for i in range(plan.head_size, n))
            ideal += prob * (plan.kappa - 1.0 + tail)
        return _bound("target-identity", abs(ideal - (H + D)), 1e-9, tol=0.0,
                      ideal=ideal, reference=H + D)

    if report is None:
        report = stationary_distribution(table, p)
    q = report.probs
    L = report.mean_bits_encoder_view
    # the forward sets, which only the case bounds read
    part = table.saeds_partition() if which.startswith("case") else None

    if which == "case1":
        for s, block in enumerate(part.subsets):
            sizes = {len(part.forward_sets[x]) for x in block}
            if len(sizes) != 1 or n % len(block) != 0:
                raise KindMismatch("not an equal-ratio layout")
        return _bound("case1", L, H + D + SIGMA, H=H, D=D)

    if which == "case2":
        correction = 0.0
        for s, block in enumerate(part.subsets):
            ns = len(block)
            m_s = n // ns
            big = [x for x in block if len(part.forward_sets[x]) == m_s + 1]
            small = [x for x in block if len(part.forward_sets[x]) == m_s]
            if len(big) + len(small) != ns:
                raise KindMismatch("forward sets are not M or M+1 sized")
            mass_big = math.fsum(
                math.fsum(q[y] for y in part.forward_sets[x]) for x in big)
            correction += p.probs[s] * math.log2((m_s + mass_big) / (n / ns))
        return _bound("case2", L, H + D + SIGMA + correction,
                      H=H, D=D, correction=correction)

    if which == "case3":
        if n & (n - 1):
            raise KindMismatch("state count is not a power of two")
        corr = 0.0
        for s, block in enumerate(part.subsets):
            ns = len(block)
            ks = (ns - 1).bit_length() if ns > 1 else 0
            masses = sorted(
                math.fsum(q[y] for y in part.forward_sets[x]) for x in block)
            check_mass = math.fsum(masses[:2 * ns - (1 << ks)])
            nu = (2 * ns - (1 << ks)) / ns - check_mass
            corr += p.probs[s] * (nu - phased_in_redundancy(ns))
        return _bound("case3", L, H + D + corr, H=H, D=D, correction=corr)

    if which == "target-gap":
        # If the solved chain tracks the target within a budget, the rate
        # exceeds H + D by no more than the matching budget.
        target = q_star(n)
        gap = max(qi - ti for qi, ti in zip(q, target))
        budgets = {"inverse-squared": (eta / n ** 2, eta / n),
                   "inverse-log": (eta / (n * math.log2(n)), eta / math.log2(n)),
                   "inverse": (eta / n, eta)}
        if rate not in budgets:
            raise ValueError(f"unknown rate {rate!r}")
        premise_budget, conclusion_budget = budgets[rate]
        return _bound(f"target-gap[{rate}]", L, H + D + conclusion_budget,
                      premise_gap=gap, premise_budget=premise_budget,
                      premise_holds=gap < premise_budget)

    return _bound(f"large-n[gamma={gamma}]", L,
                  H + D + (gamma + 0.5) * LG_E / n,
                  dominated=_dominated(q, n, gamma),
                  excess=(L - H) * n)


def _dominated(q, n_states, gamma):
    """Whether the slack target for ``gamma`` dominates Q pointwise."""
    return all(qi <= si + 1e-12
               for qi, si in zip(q, q_star_shifted(n_states, gamma)))


def smallest_dominating_gamma(q, n_states):
    """First shift in GAMMA_SWEEP whose slack target dominates Q, or None."""
    return next((g for g in GAMMA_SWEEP if _dominated(q, n_states, g)), None)


# ---------------------------------------------------------------------------
# Monte Carlo rate


@dataclass(frozen=True)
class RateEstimate:
    bits_per_symbol: float
    stderr: float
    symbols: int
    batches: int


def _sampler(probs):
    """Map draws u as ``Generator.choice(p=probs / probs.sum())`` does, to
    ``cdf.searchsorted(u, "right")``, by a table of DRAW_BUCKETS equal
    slices of [0, 1); draws in a slice that a ``cdf`` step cuts search."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    edges = np.arange(DRAW_BUCKETS + 1) / DRAW_BUCKETS
    lo = cdf.searchsorted(edges[:-1], side="right")
    lut = np.where(lo == cdf.searchsorted(edges[1:]), lo, -1)

    def draw(u):
        out = lut[(u * DRAW_BUCKETS).astype(np.intp)]
        cut = out < 0
        out[cut] = cdf.searchsorted(u[cut], side="right")
        return out
    return draw


def monte_carlo_rate(table, p, n, seed):
    """Empirical bits/symbol over i.i.d. symbols, deterministic per seed.

    MC_BATCHES lanes, each one batch of the batch-means standard error,
    run the chain in step from state 0 on ``default_rng(seed).choice``'s
    draws: MC_WARMUP discarded steps that let them forget their common
    start, then ``n`` rounded to ``max(n // MC_BATCHES, 1)`` steps each.
    """
    _require_alphabet(table, p)
    _require_ergodic(table, "monte carlo")
    steps = max(n // MC_BATCHES, 1)
    rng = np.random.default_rng(seed)
    draw = _sampler(np.array(p.probs))
    into = table.nexts.ravel().astype(np.intp) * len(p.symbols)
    at = np.zeros(MC_BATCHES, dtype=np.intp)
    totals = np.zeros(MC_BATCHES, dtype=np.int64)
    walk_lanes(into, draw(rng.random((MC_WARMUP, MC_BATCHES))), at)
    for start in range(0, steps, MC_ROWS):
        rows = draw(rng.random((min(MC_ROWS, steps - start), MC_BATCHES)))
        walk_lanes(into, rows, at)
        totals += table.lengths.take(rows).sum(0)
    rates = totals / steps
    stderr = float(rates.std(ddof=1) / math.sqrt(MC_BATCHES))
    return RateEstimate(float(rates.mean()), stderr, steps * MC_BATCHES,
                        MC_BATCHES)
