import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

import aeds.model
from aeds.analysis import (
    LG_E,
    MC_BATCHES,
    MC_WARMUP,
    SIGMA,
    RateEstimate,
    _sampler,
    _solve_chain,
    _step,
    check_bound,
    closed_form_stationary,
    delta_type1,
    delta_type2,
    huffman_worst_redundancy,
    monte_carlo_rate,
    omega_type1,
    omega_type2,
    q_harmonic,
    q_star,
    q_star_shifted,
    smallest_dominating_gamma,
    stationary_distribution,
    symbol_masses,
    uniform_huffman_length,
    uniform_huffman_right_weight,
)
from aeds.cli import _figure_rows
from aeds.codec import validate_aeds
from aeds.constructors import (
    build_large_n,
    build_prefix_table,
    build_saeds_case2,
    build_saeds_case3,
    build_type1,
    build_type2,
)
from aeds.errors import (AlphabetMismatch, KindMismatch, NoConvergence,
                         NotErgodic)
from aeds.model import AedsTable, Codeword, validate_distribution
from aeds.prefix_codes import build_huffman, phased_in_redundancy, tree_metrics
from aeds.tans import build_tans, quantize_counts, tans_to_aeds

from conftest import random_source, random_table, traced_peak


def binary_source(r):
    return validate_distribution([("a", r), ("b", 1.0 - r)])


def test_stationary_two_state():
    p = binary_source(0.65)
    table = build_type1(build_huffman(p), p, 2)
    rep = stationary_distribution(table, p)
    assert rep.probs[0] == pytest.approx(0.606061, abs=1e-6)
    assert rep.probs[1] == pytest.approx(0.393939, abs=1e-6)
    assert rep.residual < 1e-12
    assert sum(rep.probs) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_type1_half():
    assert closed_form_stationary("type1", 0.5, 2) == \
        pytest.approx((2 / 3, 1 / 3), abs=1e-15)


def test_closed_form_type2_sums_to_one():
    for i in range(50):
        w = 0.5 + 0.01 * i
        if w >= 1.0:
            continue
        assert sum(closed_form_stationary("type2", w)) == \
            pytest.approx(1.0, abs=1e-12)


def test_closed_form_matches_solver_high_weight():
    p = binary_source(0.9)
    table = build_type1(build_huffman(p), p, 4)
    rep = stationary_distribution(table, p)
    closed = closed_form_stationary("type1", 0.9, 4)
    assert max(abs(a - b) for a, b in zip(closed, rep.probs)) < 1e-10


def test_stationary_requires_ergodic_chain():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 1), (w("1"), 1)),
        ((w("0"), 0), (w("1"), 0)),
    ]
    table = AedsTable.from_rows(("a", "b"), rows)  # period-2 chain
    with pytest.raises(NotErgodic):
        stationary_distribution(table, binary_source(0.6))


def test_length_views_agree_on_random_tables():
    rng = random.Random(2)
    for _ in range(100):
        table = random_table(rng)
        p = random_source(rng, symbols=[f"s{i}"
                                        for i in range(len(table.symbols))])
        rep = stationary_distribution(table, p)
        assert abs(rep.mean_bits_encoder_view
                   - rep.mean_bits_decoder_view) < 1e-9


def test_symbol_mass_identity_for_state_divided_tables():
    rng = random.Random(10)
    for _ in range(20):
        p = random_source(rng, n_symbols=rng.randint(2, 5))
        counts = [rng.randint(1, 6) for _ in p.symbols]
        try:
            table = build_saeds_case2(p, counts)
            rep = stationary_distribution(table, p)
        except NotErgodic:
            continue
        masses = symbol_masses(table, p, rep.probs)
        for got, want in zip(masses, p.probs):
            assert got == pytest.approx(want, abs=1e-10)


def test_delta_type1_known_points():
    assert delta_type1(0.65, 2) == pytest.approx(0.043939, abs=1e-6)
    assert delta_type1(omega_type1(), 2) == pytest.approx(0.0, abs=1e-12)
    assert delta_type1(0.9, 4) == pytest.approx(0.509218, abs=1e-6)
    assert delta_type1(0.8, 2) == pytest.approx(0.244444, abs=1e-6)


def test_delta_type2_known_points():
    assert delta_type2(0.65) == pytest.approx(0.054372, abs=1e-6)
    assert delta_type2(omega_type2()) == pytest.approx(0.0, abs=1e-10)
    # approaching the degenerate tree the reduction tends to one third
    assert delta_type2(1 - 1e-9) == pytest.approx(1 / 3, abs=1e-6)


def test_positivity_thresholds():
    w1 = omega_type1()
    assert w1 == pytest.approx(0.618034, abs=1e-6)
    assert delta_type1(w1 - 1e-6, 2) == 0.0
    assert delta_type1(w1 + 1e-6, 2) > 0.0
    w2 = omega_type2()
    assert w2 == pytest.approx(0.56984, abs=1e-4)
    assert delta_type2(w2 - 1e-6) == 0.0
    assert delta_type2(w2 + 1e-6) > 0.0


def test_five_state_beats_two_state_on_a_known_window():
    # locate the crossover where the two reductions tie again
    lo, hi = 0.6, 0.7
    for _ in range(60):
        mid = (lo + hi) / 2
        if delta_type2(mid) > delta_type1(mid, 2):
            lo = mid
        else:
            hi = mid
    assert (lo + hi) / 2 == pytest.approx(0.66536, abs=1e-3)
    probe = (omega_type2() + 0.66536) / 2
    assert delta_type2(probe) > delta_type1(probe, 2)
    assert delta_type2(0.56984 - 1e-3) == 0.0


def test_chain_reduction_limits():
    for n in (2, 4, 8, 16):
        assert delta_type1(1 - 1e-6, n) == pytest.approx(
            (n - 1) / n, abs=1e-4)


def test_worst_case_redundancy_curves():
    assert huffman_worst_redundancy(0.5) == pytest.approx(0.5)
    for n in (2, 4, 8):
        vals = [huffman_worst_redundancy(0.5 + i / 200) -
                (huffman_worst_redundancy(0.5 + i / 200)
                 - delta_type1(0.5 + i / 200, n))
                for i in range(99)]
        assert all(v >= -1e-12 for v in vals)
    header, rows = _figure_rows("binary")
    first = dict(zip(header, rows[0]))
    assert first["r"] == 0.5
    assert first["source"] == pytest.approx(0.0, abs=1e-12)
    assert first["type1_n4"] == pytest.approx(0.0, abs=1e-12)
    assert first["type2"] == pytest.approx(0.0, abs=1e-12)


def test_uniform_huffman_quantities():
    assert uniform_huffman_length(80) == pytest.approx(6.4, abs=1e-12)
    assert uniform_huffman_right_weight(96) == pytest.approx(2 / 3, abs=0)
    for k in range(1, 12):
        assert phased_in_redundancy(1 << k) == pytest.approx(0, abs=1e-12)
    assert phased_in_redundancy(96) == pytest.approx(0.081704, abs=1e-6)


def test_sigma_constant():
    assert SIGMA == pytest.approx(0.08607, abs=1e-5)
    assert SIGMA == pytest.approx(math.log2(math.log2(math.e)) + 1
                                  - math.log2(math.e), abs=1e-15)


def test_q_star_values_and_telescoping():
    vals = q_star(4)
    assert vals == pytest.approx(
        (0.321928, 0.263034, 0.222392, 0.192645), abs=1e-6)
    for n in (2, 3, 7, 64, 1000):
        assert sum(q_star(n)) == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(q_star(n), q_star(n)[1:]))


def test_harmonic_target_dominated():
    for n in (4, 16, 128, 1024, 4096):
        target = q_star(n)
        harm = q_harmonic(n)
        cap = LG_E / (2 * n * n)
        assert all(h < t + cap for h, t in zip(harm, target))


def test_shifted_target_sandwich():
    for n in (4, 16, 128, 1024, 4096):
        target = q_star(n)
        shifted = q_star_shifted(n, 4)
        up = (4 + 0.5) * LG_E / (n * n)
        low = (4 - 2) * LG_E / (4 * n * n)
        assert all(s - t < up for s, t in zip(shifted, target))
        assert all(s - t > low for s, t in zip(shifted, target))


def test_check_bound_kind_mismatch():
    p = validate_distribution([("a", 0.6), ("b", 0.4)])
    table = build_type2(build_huffman(p), p)  # not state-divided
    with pytest.raises(KindMismatch):
        check_bound(table, p, "case1")


@pytest.mark.parametrize("build,which,message", [
    (lambda p: build_large_n(p, [4, 4])[0], "target-identity",
     "target-identity needs the interval layout"),
    # "a" owns 3 of N = 8 states: forward sets of 2, 2 and 4, M = 8 // 3 = 2
    (lambda p: build_saeds_case3(p, [3, 5]), "case2",
     "forward sets are not M or M\\+1 sized"),
    (lambda p: build_saeds_case2(p, [3, 3]), "case3",
     "state count is not a power of two"),
])
def test_check_bound_rejects_the_wrong_layout(build, which, message):
    p = validate_distribution([("a", 1), ("b", 1)])
    with pytest.raises(KindMismatch, match=message):
        check_bound(build(p), p, which)


ABC = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
WRONG_ALPHABETS = [
    validate_distribution([("a", 1), ("b", 1)]),
    validate_distribution([("a", 1), ("b", 1), ("c", 1), ("d", 1)]),
    validate_distribution([("x", 3), ("y", 3), ("z", 2)]),
]


@pytest.mark.parametrize("p", WRONG_ALPHABETS)
def test_stationary_distribution_checks_the_alphabet(p):
    table, _ = build_large_n(ABC, [3, 3, 2])
    with pytest.raises(AlphabetMismatch):
        stationary_distribution(table, p)


@pytest.mark.parametrize("p", WRONG_ALPHABETS)
def test_monte_carlo_checks_the_alphabet(p):
    # the largeN-sweep table: a two-symbol p used to give a rate, a
    # four-symbol one an IndexError
    table, _ = build_large_n(ABC, [3, 3, 2])
    with pytest.raises(AlphabetMismatch):
        monte_carlo_rate(table, p, 1000, seed=1)


@pytest.mark.parametrize("p", WRONG_ALPHABETS)
@pytest.mark.parametrize("which", ["large-n", "case3", "target-identity"])
def test_check_bound_checks_the_alphabet_of_a_given_report(p, which):
    if which == "case3":
        table, extra = build_saeds_case3(ABC, [3, 3, 2]), {}
    else:
        table, layout = build_large_n(ABC, [3, 3, 2])
        extra = {"layout": layout} if which == "target-identity" else {}
    rep = stationary_distribution(table, ABC)
    assert check_bound(table, ABC, which, report=rep, **extra).holds
    with pytest.raises(AlphabetMismatch):
        check_bound(table, p, which, report=rep, **extra)


def test_check_bound_rejects_the_kind_before_solving(monkeypatch):
    # every state loops to itself: neither ergodic nor state-divided, so a
    # solve would raise NotErgodic
    w = Codeword.from_bits
    loops = AedsTable.from_rows(("a", "b"), [((w("0"), 0), (w("1"), 0)),
                                             ((w("0"), 1), (w("1"), 1))])
    p = validate_distribution([("a", 1), ("b", 1)])
    for which in ("no-such-bound", "harmonic-target", "case1", "large-n"):
        with pytest.raises(KindMismatch):
            check_bound(loops, p, which)
    table, _ = build_large_n(p, [4, 4])
    monkeypatch.setattr(aeds.analysis, "stationary_distribution",
                        lambda *args: pytest.fail("solved the chain"))
    with pytest.raises(KindMismatch):
        check_bound(table, p, "no-such-bound")


def test_target_identity_does_not_solve_the_chain(monkeypatch):
    p = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
    table, layout = build_large_n(p, [6, 6, 4])
    solves = []
    solve = aeds.analysis.stationary_distribution
    monkeypatch.setattr(aeds.analysis, "stationary_distribution",
                        lambda *args: solves.append(args) or solve(*args))
    assert check_bound(table, p, "target-identity", layout=layout).holds
    assert solves == []
    check_bound(table, p, "target-gap")
    assert len(solves) == 1


def test_target_gap_rate_variants_reported():
    p = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
    table, _ = build_large_n(p, [6, 6, 4])
    rep = stationary_distribution(table, p)
    for rate in ("inverse-squared", "inverse-log", "inverse"):
        out = check_bound(table, p, "target-gap", report=rep, rate=rate,
                          eta=4.0)
        assert "premise_holds" in out.details
        if out.details["premise_holds"]:
            assert out.holds


def test_monte_carlo_determinism_and_dyadic_rate():
    p = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    from aeds.constructors import build_huffman_matching_saeds
    table = build_huffman_matching_saeds(p)
    one = monte_carlo_rate(table, p, 10 ** 6, seed=5)
    two = monte_carlo_rate(table, p, 10 ** 6, seed=5)
    assert one == two
    assert abs(one.bits_per_symbol - 1.5) <= 3 * one.stderr


def test_monte_carlo_matches_five_state_analytics():
    six = validate_distribution(
        [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15),
         ("e", 0.1), ("f", 0.1)])
    table = build_type2(build_huffman(six), six)
    analytic = stationary_distribution(table, six).mean_bits
    est = monte_carlo_rate(table, six, 10 ** 6, seed=11)
    assert abs(est.bits_per_symbol - analytic) <= 3 * est.stderr


SIX = validate_distribution(
    [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15), ("e", 0.1),
     ("f", 0.1)])


def test_stationary_solves_pinned():
    # Pinned to the last bit: both solvers add the weight entering a state
    # in (state, symbol) order.  In the five-state table several symbols of
    # several states lead to state 0, so another order moves Q.
    table = build_type2(build_huffman(SIX), SIX)
    rep = stationary_distribution(table, SIX)
    assert rep.method == "direct-solve"
    assert rep.probs == (0.2592592592592592, 0.09074074074074066,
                         0.31363088057901084, 0.20386007237635703,
                         0.13250904704463212)
    assert abs(rep.mean_bits - 2.445628378680248) <= 1e-12
    rep = stationary_distribution(table, SIX, method="power-iteration")
    assert rep.probs == (0.2592592592592593, 0.09074074074074073,
                         0.3136308805790011, 0.2038600723766526,
                         0.13250904704434624)
    assert abs(rep.mean_bits - 2.44562837867978) <= 1e-12


def test_monte_carlo_pinned():
    table = build_type2(build_huffman(SIX), SIX)
    assert monte_carlo_rate(table, SIX, 10 ** 5, seed=11).bits_per_symbol \
        == 2.44873


def monte_carlo_oracle(table, p, n, seed):
    """The per-step Monte Carlo loop over one bulk ``Generator.choice``
    draw that ``monte_carlo_rate`` must reproduce exactly."""
    steps = max(n // MC_BATCHES, 1)
    rng = np.random.default_rng(seed)
    nexts, lengths = table.nexts, table.lengths
    probs = np.array(p.probs)
    probs = probs / probs.sum()
    states = np.zeros(MC_BATCHES, dtype=np.int64)
    draws = rng.choice(len(p.symbols), size=(MC_WARMUP + steps, MC_BATCHES),
                       p=probs)
    for t in range(MC_WARMUP):
        states = nexts[states, draws[t]]
    totals = np.zeros(MC_BATCHES, dtype=np.int64)
    for t in range(MC_WARMUP, MC_WARMUP + steps):
        sym = draws[t]
        totals += lengths[states, sym]
        states = nexts[states, sym]
    rates = totals / steps
    stderr = float(rates.std(ddof=1) / math.sqrt(MC_BATCHES))
    return RateEstimate(float(rates.mean()), stderr, steps * MC_BATCHES,
                        MC_BATCHES)


def _bytes_source(n_symbols, seed):
    rng = random.Random(seed)
    return validate_distribution(
        [(b, rng.uniform(0.001, 1.0) / (b + 1)) for b in range(n_symbols)])


@pytest.fixture(scope="module")
def monte_carlo_tables():
    p256, p300 = _bytes_source(256, 1), _bytes_source(300, 2)
    return {
        "one-state": (build_prefix_table(build_huffman(SIX), SIX), SIX),
        "type2": (build_type2(build_huffman(SIX), SIX), SIX),
        "case2": (build_saeds_case2(p256, quantize_counts(p256, 512)), p256),
        "case3": (build_saeds_case3(p256, quantize_counts(p256, 512)), p256),
        "300-symbols": (build_saeds_case2(p300, quantize_counts(p300, 1024)),
                        p300),
    }


@pytest.mark.parametrize("n", [1, 99, 100, 10 ** 4 + 37, 10 ** 6])
@pytest.mark.parametrize("name", ["one-state", "type2", "case2", "case3",
                                  "300-symbols"])
def test_monte_carlo_equals_the_per_step_oracle(monte_carlo_tables, name, n):
    table, p = monte_carlo_tables[name]
    assert monte_carlo_rate(table, p, n, seed=7) \
        == monte_carlo_oracle(table, p, n, seed=7)


@pytest.mark.parametrize("rows", [1, 7, 22, 23])
def test_monte_carlo_draw_slices_do_not_change_the_estimate(
        monte_carlo_tables, monkeypatch, rows):
    # 23 counted steps a lane: one-row slices, a short last slice, and one
    # slice one row short of or exactly all of them
    table, p = monte_carlo_tables["type2"]
    monkeypatch.setattr(aeds.analysis, "MC_ROWS", rows)
    assert monte_carlo_rate(table, p, 2345, seed=3) \
        == monte_carlo_oracle(table, p, 2345, seed=3)


def _dyadic(rng, m):
    """Probabilities that are multiples of 2^-12 over ``m`` symbols, so
    every CDF step falls on an edge of the draw table's buckets."""
    cuts = sorted(rng.sample(range(1, 1 << 12), m - 1))
    return np.diff([0] + cuts + [1 << 12]) / (1 << 12)


@pytest.mark.parametrize("seed", range(12))
def test_draw_table_equals_generator_choice(seed):
    rng = random.Random(seed)
    m = rng.choice([1, 2, 3, 17, 256, 300, 5000])
    probs = np.array([rng.random() for _ in range(m)])
    if seed % 3 == 1 and m > 1:
        probs[rng.randrange(m)] = 0.0  # a repeated CDF step
    if seed % 3 == 2 and m < 1 << 12:
        probs = _dyadic(rng, m)
    want = np.random.default_rng(seed).choice(m, size=(300, 100),
                                              p=probs / probs.sum())
    draw = _sampler(probs)
    gen = np.random.default_rng(seed)
    got = np.concatenate([draw(gen.random((k, 100))) for k in (1, 99, 200)])
    assert (got == want).all()


@pytest.mark.parametrize("bits", [0, 1, 11, 12, 13])
def test_draw_table_on_uniform_dyadic_sources(bits):
    # 2^12 symbols put a CDF step on every bucket edge, 2^13 one inside
    # each bucket as well
    probs = np.full(1 << bits, 1.0 / (1 << bits))
    u = np.random.default_rng(bits).random(10 ** 5)
    u[:4] = [0.0, 0.5, 0.25 - 2 ** -53, 1 - 2 ** -53]
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    assert (_sampler(probs)(u) == cdf.searchsorted(u, side="right")).all()


def test_power_iteration_agrees_with_direct():
    p = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
    table, _ = build_large_n(p, [12, 12, 8])
    direct = stationary_distribution(table, p, method="direct-solve")
    power = stationary_distribution(table, p, method="power-iteration")
    assert max(abs(a - b)
               for a, b in zip(direct.probs, power.probs)) < 1e-9
    assert direct.method == "direct-solve"
    assert power.method == "power-iteration"


SWEEP = validate_distribution([("a", 3), ("b", 3), ("c", 2)])


def test_auto_agrees_with_direct_above_the_dense_limit():
    # the N = 2048 table of the largeN-sweep figure, whose slowly mixing
    # chain (|lambda_2| about 0.998) left power iteration 1e-11 off
    n = 2048
    table, _ = build_large_n(SWEEP, [3 * n // 8, 3 * n // 8, n // 4])
    auto = stationary_distribution(table, SWEEP)
    direct = stationary_distribution(table, SWEEP, method="direct-solve")
    assert auto.method == "bicgstab"
    assert auto.residual <= 1e-14
    assert max(abs(a - b) for a, b in zip(auto.probs, direct.probs)) <= 1e-13
    h = aeds.model.entropy(SWEEP)
    assert abs((auto.mean_bits - h) * n - (direct.mean_bits - h) * n) <= 1e-9


def test_bicgstab_agrees_with_direct_on_random_tables():
    # rh . r is exactly zero in the second iteration on this chain, a
    # breakdown that a restart from the current residual gets past
    nexts = np.array([[2, 1], [2, 2], [0, 0]])
    p = validate_distribution([("a", 3), ("b", 1)])
    krylov = _solve_chain(nexts, p, "bicgstab")[0]
    assert max(abs(krylov - _solve_chain(nexts, p, "direct-solve")[0])) \
        <= 1e-15
    rng = random.Random(17)
    for _ in range(40):
        table = random_table(rng, n_states=rng.randint(1, 64))
        p = random_source(rng, symbols=table.symbols)
        krylov = stationary_distribution(table, p, method="bicgstab")
        direct = stationary_distribution(table, p, method="direct-solve")
        assert krylov.method == "bicgstab"
        assert max(abs(a - b)
                   for a, b in zip(krylov.probs, direct.probs)) <= 1e-12
        assert abs(krylov.mean_bits - direct.mean_bits) <= 1e-12


def test_bicgstab_returns_an_exact_start_at_once():
    # two equiprobable symbols: Q is uniform, the start vector, and the
    # first residual is zero, which must not reach a division
    p = validate_distribution([("a", 1), ("b", 1)])
    table = tans_to_aeds(build_tans(p, 2048))
    start = time.perf_counter()
    rep = stationary_distribution(table, p)
    assert time.perf_counter() - start < 1.0
    assert rep.method == "bicgstab"
    assert rep.probs == (1 / 2048,) * 2048


def test_bicgstab_breakdowns_raise_no_convergence(monkeypatch):
    two = validate_distribution([("a", 0.5), ("b", 0.5)])
    # two closed classes make the bordered system singular: rh . v = 0
    with pytest.raises(NoConvergence):
        _solve_chain(np.array([[0, 0], [1, 1], [1, 1]]), two, "bicgstab")
    # non-finite weights: rho is NaN
    nan = SimpleNamespace(probs=(math.nan, 0.5))
    with pytest.raises(NoConvergence):
        _solve_chain(np.array([[1, 0], [0, 1]]), nan, "bicgstab")
    # an unreachable stop rule ends at the iteration cap of 2N + 64 (or
    # at a breakdown once the residual underflows), never in a spin
    monkeypatch.setattr(aeds.analysis, "BICGSTAB_RESIDUAL", -1.0)
    table, _ = build_large_n(SWEEP, [12, 12, 8])
    with pytest.raises(NoConvergence) as caught:
        stationary_distribution(table, SWEEP, method="bicgstab")
    assert caught.value.iterations <= 2 * 32 + 64


@pytest.mark.parametrize("method,limit,error", [
    ("power-iteration", 1, NoConvergence),  # one step leaves a residual
    ("nope", None, ValueError),
])
def test_stationary_distribution_failures(monkeypatch, method, limit, error):
    if limit is not None:
        monkeypatch.setattr(aeds.analysis, "POWER_ITER_LIMIT", limit)
    table, _ = build_large_n(SWEEP, [12, 12, 8])
    with pytest.raises(error):
        stationary_distribution(table, SWEEP, method=method)


def test_length_identity_grid_type2():
    for i in range(50):
        w = 0.5 + 0.01 * i
        p = binary_source(w) if w > 0.5 else binary_source(0.5)
        table = build_type2(build_huffman(p), p)
        rep = stationary_distribution(table, p)
        mets = tree_metrics(build_huffman(p), p)
        from aeds.analysis import type2_length_drop_raw
        assert rep.mean_bits == pytest.approx(
            mets.mean_length - type2_length_drop_raw(mets.right_weight),
            abs=1e-10)


def test_smallest_gamma_reported():
    p = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
    table, _ = build_large_n(p, [24, 24, 16])
    rep = stationary_distribution(table, p)
    g = smallest_dominating_gamma(rep.probs, table.n_states)
    assert g in (3, 4, 8, 16)


def test_optimal_split_known_divisions():
    from aeds.analysis import optimal_uniform_split
    for n in (4, 6, 8):
        best = optimal_uniform_split(72, n)
        assert (best.right_items, best.left_items) == (64, 8)
    for n in (8, 16):
        best = optimal_uniform_split(68, n)
        assert (best.right_items, best.left_items) == (64, 4)


def test_huffman_tree_reduction_window():
    # the two-state reduction of the balanced-as-possible uniform tree is
    # positive exactly where its right weight clears the threshold
    from aeds.analysis import delta_type1, uniform_huffman_right_weight
    window = [m for m in range(64, 129)
              if delta_type1(uniform_huffman_right_weight(m), 2) > 0]
    assert window == list(range(84, 104))


def test_five_state_split_window():
    from aeds.analysis import optimal_uniform_split
    wins = [m for m in range(64, 129)
            if optimal_uniform_split(m, variant="type2").reduction
            > optimal_uniform_split(m, 2).reduction + 1e-12]
    assert wins == list(range(97, 113))


def test_best_split_redundancy_levels():
    from aeds.analysis import optimal_uniform_split

    def best_mu(m):
        return min(optimal_uniform_split(m, n).redundancy
                   for n in (2, 3, 4, 6, 8, 16))

    assert max(best_mu(m) for m in range(64, 83)) < 0.02
    # frozen from direct evaluation (peaks just above 0.01 at m=73)
    assert max(best_mu(m) for m in range(64, 74)) < 0.011


def test_redundancy_curve_kinds():
    header, rows = _figure_rows("worst-case")
    assert header == ["p1", "huffman", "type1_n2", "type1_n4", "type1_n16",
                      "type2"]
    assert rows[0][:2] == [0.5, pytest.approx(0.5)]
    for p1, huffman, *type1, type2 in rows:
        assert huffman == huffman_worst_redundancy(p1)
        for n, value in zip((2, 4, 16), type1):
            assert value == pytest.approx(huffman - delta_type1(p1, n),
                                          abs=1e-12)
        assert type2 == pytest.approx(huffman - delta_type2(p1), abs=1e-12)
    header, rows = _figure_rows("uniform-n2")
    by_m = {row[0]: dict(zip(header, row)) for row in rows}
    assert by_m[96]["huffman_redundancy"] == pytest.approx(
        uniform_huffman_length(96) - math.log2(96), abs=1e-12)
    assert by_m[96]["reduction_huffman_tree"] == delta_type1(2 / 3, 2)
    with pytest.raises(ValueError):
        _figure_rows("no-such-curve")


def test_closed_form_argument_checks():
    with pytest.raises(ValueError):
        closed_form_stationary("type1", 0.3, 4)
    with pytest.raises(ValueError):
        closed_form_stationary("type2", 0.6, n_states=7)
    with pytest.raises(ValueError):
        closed_form_stationary("other", 0.6, 4)


def test_monte_carlo_requires_ergodic_chain():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 1), (w("1"), 1)),
        ((w("0"), 0), (w("1"), 0)),
    ]
    table = AedsTable.from_rows(("a", "b"), rows)
    p = validate_distribution([("a", 1), ("b", 1)])
    with pytest.raises(NotErgodic):
        monte_carlo_rate(table, p, 1000, seed=1)


def test_solve_and_monte_carlo_compute_ergodicity_once(monkeypatch):
    calls = []
    real = aeds.model.ergodicity
    monkeypatch.setattr(aeds.model, "ergodicity",
                        lambda *args: calls.append(1) or real(*args))
    table = build_saeds_case2(SIX, [3, 2, 2, 2, 2, 1])
    assert calls == []                 # building ranks without the cache
    rep = stationary_distribution(table, SIX)
    est = monte_carlo_rate(table, SIX, 10 ** 4, seed=3)
    assert validate_aeds(table).ergodicity == table.ergodicity()
    assert abs(est.bits_per_symbol - rep.mean_bits) < 5 * est.stderr
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# certifying a large table in bounded memory

ZIPF_256 = validate_distribution(
    [(b, 1 / (b + 1) ** 1.2) for b in range(256)])


def test_step_adds_what_the_repeat_tile_formula_adds_bit_for_bit():
    # the oracle is the formula the step replaced; Krylov vectors have
    # negative and zero entries, so the draws do too
    gen = np.random.default_rng(24)
    # column writes up to COLUMN_STEP_SYMBOLS symbols, an outer product above
    for m in [1, 2, 3, 4, 5, 8, *gen.integers(6, 300, 30).tolist()]:
        n = int(gen.integers(1, 400))
        nexts = gen.integers(0, n, (n, m))
        p, q = gen.random(m), gen.random(n) - 0.25
        q[gen.random(n) < 0.1] = 0.0
        want = np.bincount(nexts.ravel(),
                           weights=np.repeat(q, m) * np.tile(p, n),
                           minlength=n)
        got = _step(nexts.ravel(), p, q, np.empty((n, m)))
        assert got.tobytes() == want.tobytes()


def held(table):
    """Bytes of the table's arrays and, once built, of its grouping."""
    grouping = table._incoming or ()
    return sum(a.nbytes for a in (table.nexts, table.lengths, table.values,
                                  *grouping))


def test_certifying_a_large_table_peaks_near_what_it_keeps():
    # each step's peak above a process that held only p and the counts:
    # what the table keeps (8.4 MB, and 2.1 MB of grouping) plus what the
    # step allocates.  Before, ergodicity peaked at 25 MB, the solve at
    # 30 MB (an intp copy, a tiled p and two fresh products a step) and
    # the bound at 21.5 MB, with a tuple of origins per state.
    table, layout = build_large_n(ZIPF_256, quantize_counts(ZIPF_256, 2048))
    assert table.nexts.shape == (2048, 256)
    kept = held(table)
    report, peak = traced_peak(table.ergodicity)
    assert report.ergodic and kept + peak < 22e6
    kept = held(table)
    report, peak = traced_peak(
        lambda: stationary_distribution(table, ZIPF_256))
    assert report.residual < 1e-12 and kept + peak < 22e6
    bound, peak = traced_peak(
        lambda: check_bound(table, ZIPF_256, "large-n", report=report))
    assert bound.holds and peak < 1e6  # the subset sizes, no forward sets
