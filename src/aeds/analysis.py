"""Analytic machinery: stationary distributions, exact average code lengths,
closed-form reduction/redundancy functions, and numeric bound checks.

Closed-form evaluators are deliberately kept separate from the linear
solvers so each side can serve as the other's oracle in tests.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AlphabetMismatch, KindMismatch, NoConvergence, NotErgodic
from .model import SourceDistribution, entropy, relative_entropy
from .prefix_codes import SIGMA, phased_in_redundancy

LG_E = math.log2(math.e)

DIRECT_SOLVE_LIMIT = 1024
POWER_ITER_LIMIT = 10 ** 6
POWER_ITER_RESIDUAL = 1e-12


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


def _step(nexts, w, q):
    """State weights after one more symbol: Q(x) p(s) moves to F(x, s).
    ``w`` holds p once per state, in the x-major order of ``nexts``."""
    return np.bincount(nexts.ravel(), weights=np.repeat(q, nexts.shape[1]) * w,
                       minlength=len(q))


def _solve_direct(nexts, w):
    n, m = nexts.shape
    a = np.zeros((n, n))
    np.add.at(a, (nexts.ravel(), np.repeat(np.arange(n), m)), w)
    np.subtract(np.eye(n), a, out=a)  # I - P without a second matrix
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    q = np.linalg.solve(a, b)
    check = a @ q - b
    if float(np.max(np.abs(check))) > 1e-12 * n:
        warnings.warn(f"balance system is ill-conditioned "
                      f"(solve residual {np.max(np.abs(check)):.2e})",
                      RuntimeWarning, stacklevel=4)
    q = np.maximum(q, 0.0)
    q /= q.sum()
    return q


def _solve_power(nexts, w):
    n = len(nexts)
    q = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_LIMIT):
        nxt = _step(nexts, w, q)
        nxt /= nxt.sum()
        residual = float(np.max(np.abs(nxt - q)))
        q = nxt
        if residual <= POWER_ITER_RESIDUAL:
            return q
    raise NoConvergence(residual, POWER_ITER_LIMIT)


def _solve_chain(nexts, p, method):
    """Solve Q = QP for the ergodic chain of a next-state array.  Returns
    Q, the method used and the residual of one more step."""
    if method == "auto":
        method = ("direct-solve" if len(nexts) <= DIRECT_SOLVE_LIMIT
                  else "power-iteration")
    w = np.tile(np.array(p.probs), len(nexts))
    if method == "direct-solve":
        q = _solve_direct(nexts, w)
    elif method == "power-iteration":
        q = _solve_power(nexts, w)
    else:
        raise ValueError(f"unknown method {method!r}")
    return q, method, float(np.max(np.abs(_step(nexts, w, q) - q)))


def _require_ergodic(table, what):
    report = table.ergodicity()
    if not report.ergodic:
        raise NotErgodic(f"{what} needs an ergodic chain: {report}")


def _decoder_view(table, probs, q):
    """Average length grouped by decoder state: the mean length of the
    codewords each state parses, weighted by Q of that state.  States with
    Q below 1e-300 are skipped and returned."""
    n, m = table.nexts.shape
    into = table.nexts.ravel()
    kept = q[into] >= 1e-300
    flow = np.repeat(q, m) * np.tile(probs, n) * table.lengths.ravel()
    per_state = np.bincount(into[kept], weights=flow[kept] / q[into[kept]],
                            minlength=n)
    skipped = (q < 1e-300) & (np.bincount(into, minlength=n) > 0)
    return float(q @ per_state), tuple(np.flatnonzero(skipped).tolist())


def stationary_distribution(table, p, method="auto"):
    """Solve Q = QP for the encoding chain driven by i.i.d. symbols.

    Small chains go through a dense partial-pivot solve with one balance
    equation replaced by normalization; larger ones use power iteration.
    The two average-length representations (grouped by encoder state and by
    decoder state) are both evaluated.
    """
    if tuple(p.symbols) != table.symbols:
        raise AlphabetMismatch("distribution and table alphabets differ")
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


def omega_type2(tol=1e-12):
    """Root of w^3 - w^2 + 2w - 1 located by bisection on [0.5, 0.7]."""
    def f(w):
        return w ** 3 - w * w + 2.0 * w - 1.0
    lo, hi = 0.5, 0.7
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binary_entropy(u):
    if u in (0.0, 1.0):
        return 0.0
    return -u * math.log2(u) - (1.0 - u) * math.log2(1.0 - u)


def huffman_worst_redundancy(p1):
    """Worst-case Huffman redundancy for a dominant symbol weight p1 >= 0.5:
    2 - p1 - h(p1)."""
    return 2.0 - p1 - binary_entropy(p1)


def type1_worst_redundancy(p1, n_states):
    return huffman_worst_redundancy(p1) - delta_type1(p1, n_states)


def type2_worst_redundancy(p1):
    return huffman_worst_redundancy(p1) - delta_type2(p1)


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
    k = max(m - 1, 0).bit_length()
    return k + 1.0 - (1 << k) / m


def uniform_huffman_redundancy(m):
    return uniform_huffman_length(m) - math.log2(m)


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


def redundancy_curves(kind, grid=None, n_states=2):
    """Tabulated closed-form curves as a list of row dicts (CSV-friendly)."""
    rows = []
    if kind in ("huffman-worst", "type1-worst", "type2-worst"):
        grid = grid if grid is not None else [0.5 + 0.001 * i for i in range(500)]
        for p1 in grid:
            row = {"p1": p1, "huffman": huffman_worst_redundancy(p1)}
            if kind == "type1-worst":
                row["type1"] = type1_worst_redundancy(p1, n_states)
            if kind == "type2-worst":
                row["type2"] = type2_worst_redundancy(p1)
            rows.append(row)
        return rows
    if kind == "binary":
        grid = grid if grid is not None else [0.5 + 0.001 * i for i in range(500)]
        for r in grid:
            rows.append({
                "r": r,
                "source": binary_redundancy(r),
                "type1": binary_redundancy(r, "type1", n_states),
                "type2": binary_redundancy(r, "type2"),
            })
        return rows
    if kind == "uniform-huffman":
        grid = grid if grid is not None else range(2, 129)
        for m in grid:
            rows.append({
                "m": m,
                "mean_bits": uniform_huffman_length(m),
                "redundancy": uniform_huffman_redundancy(m),
                "right_weight": uniform_huffman_right_weight(m),
            })
        return rows
    raise ValueError(f"unknown curve kind {kind!r}")


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

    def as_csv_row(self):
        params = ";".join(f"{k}={v:.12g}" if isinstance(v, float)
                          else f"{k}={v}"
                          for k, v in sorted(self.details.items()))
        return {"bound": self.name, "params": params, "left": self.left,
                "right": self.right, "slack": self.slack,
                "holds": int(self.holds)}


def _bound(name, left, right, tol=1e-9, **details):
    slack = right - left
    return BoundReport(name, left, right, slack >= -tol, slack, details)


def check_bound(table, p, which, report=None, layout=None,
                gamma=4, eta=1.0, rate="inverse"):
    """Evaluate one of the analytic upper bounds against the solved chain.

    ``which`` selects the bound; ``report`` may carry a precomputed
    StationaryReport.  Measured quantities (the per-state masses entering
    the case-2 and case-3 corrections) always come from the solved chain,
    never from assumptions.
    """
    n = table.n_states
    if report is None:
        report = stationary_distribution(table, p)
    q = report.probs
    L = report.mean_bits_encoder_view
    H = entropy(p)

    if which in ("case1", "case2", "case3", "target-identity", "target-gap",
                 "large-n"):
        part = table.saeds_partition()
        if part is None:
            raise KindMismatch("table is not state-divided")
        ratio = [len(b) / n for b in part.subsets]
        D = relative_entropy(p, SourceDistribution(p.symbols, ratio))

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

    if which == "harmonic-target":
        # The normalized harmonic weights stay within lg(e)/2N^2 above the
        # telescoping target, pointwise.
        target = q_star(n)
        harm = q_harmonic(n)
        worst = max(h - t for h, t in zip(harm, target))
        return _bound("harmonic-target", worst, LG_E / (2.0 * n * n), tol=0.0)

    if which == "shifted-target":
        # Sandwich for the slack target: its pointwise excess over the
        # plain target sits between (gamma-2)lg(e)/4N^2 and
        # (gamma+1/2)lg(e)/N^2.
        target = q_star(n)
        shifted = q_star_shifted(n, gamma)
        upper = max(s - t for s, t in zip(shifted, target))
        lower = min(s - t for s, t in zip(shifted, target))
        up = _bound("shifted-target-upper", upper,
                    (gamma + 0.5) * LG_E / n ** 2, tol=0.0)
        low = _bound("shifted-target-lower",
                     (gamma - 2.0) * LG_E / (4.0 * n ** 2), lower, tol=0.0)
        return up, low

    if which == "large-n":
        shifted = q_star_shifted(n, gamma)
        dominated = all(qi <= si + 1e-12 for qi, si in zip(q, shifted))
        return _bound(f"large-n[gamma={gamma}]", L,
                      H + D + (gamma + 0.5) * LG_E / n,
                      dominated=dominated,
                      excess=(L - H) * n)

    raise KindMismatch(f"unknown bound {which!r}")


def smallest_dominating_gamma(q, n_states, candidates=(3, 4, 8, 16)):
    """The smallest swept shift whose slack target dominates the solved Q."""
    for g in candidates:
        shifted = q_star_shifted(n_states, g)
        if all(qi <= si + 1e-12 for qi, si in zip(q, shifted)):
            return g
    return None


# ---------------------------------------------------------------------------
# Monte Carlo rate


@dataclass(frozen=True)
class RateEstimate:
    bits_per_symbol: float
    stderr: float
    symbols: int
    batches: int


def monte_carlo_rate(table, p, n, seed, batches=100, warmup=1000):
    """Empirical bits/symbol over ``n`` i.i.d. symbols, deterministic per seed.

    The encoder state chain is simulated directly in ``batches`` independent
    lanes; each lane is one batch for the batch-means standard error.  A
    short warmup run is discarded so the lanes forget their common start.
    """
    _require_ergodic(table, "monte carlo")
    steps = max(n // batches, 1)
    rng = np.random.default_rng(seed)
    n_sym = len(p.symbols)
    nexts, lengths = table.nexts, table.lengths
    probs = np.array(p.probs)
    probs = probs / probs.sum()
    states = np.zeros(batches, dtype=np.int64)
    draws = rng.choice(n_sym, size=(warmup + steps, batches), p=probs)
    for t in range(warmup):
        states = nexts[states, draws[t]]
    totals = np.zeros(batches, dtype=np.int64)
    for t in range(warmup, warmup + steps):
        sym = draws[t]
        totals += lengths[states, sym]
        states = nexts[states, sym]
    rates = totals / steps
    stderr = float(rates.std(ddof=1) / math.sqrt(batches))
    return RateEstimate(float(rates.mean()), stderr, steps * batches, batches)
