import math
import random

import pytest

import aeds.model
from aeds.analysis import (
    LG_E,
    SIGMA,
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
    redundancy_curves,
    smallest_dominating_gamma,
    stationary_distribution,
    symbol_masses,
    uniform_huffman_length,
    uniform_huffman_redundancy,
    uniform_huffman_right_weight,
)
from aeds.codec import validate_aeds
from aeds.constructors import (
    build_large_n,
    build_saeds_case2,
    build_type1,
    build_type2,
)
from aeds.errors import KindMismatch, NotErgodic
from aeds.model import AedsTable, Codeword, validate_distribution
from aeds.prefix_codes import build_huffman, tree_metrics

from conftest import random_source, random_table


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
    rows = redundancy_curves("binary", n_states=4)
    assert rows[0]["r"] == 0.5
    assert rows[0]["source"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["type1"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["type2"] == pytest.approx(0.0, abs=1e-12)


def test_uniform_huffman_quantities():
    assert uniform_huffman_length(80) == pytest.approx(6.4, abs=1e-12)
    assert uniform_huffman_right_weight(96) == pytest.approx(2 / 3, abs=0)
    for k in range(1, 12):
        assert uniform_huffman_redundancy(1 << k) == pytest.approx(0, abs=1e-12)
    assert uniform_huffman_redundancy(96) == pytest.approx(0.081704, abs=1e-6)


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


def test_power_iteration_agrees_with_direct():
    p = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
    table, _ = build_large_n(p, [12, 12, 8])
    direct = stationary_distribution(table, p, method="direct-solve")
    power = stationary_distribution(table, p, method="power-iteration")
    assert max(abs(a - b)
               for a, b in zip(direct.probs, power.probs)) < 1e-9
    assert direct.method == "direct-solve"
    assert power.method == "power-iteration"


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


def test_bound_report_csv_row():
    p = validate_distribution([("a", 0.7), ("b", 0.3)])
    from aeds.constructors import build_saeds_case1
    table = build_saeds_case1(p, [3, 3])
    row = check_bound(table, p, "case1").as_csv_row()
    assert set(row) == {"bound", "params", "left", "right", "slack", "holds"}
    assert row["holds"] == 1
    assert "H=" in row["params"] and "D=" in row["params"]


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
    rows = redundancy_curves("huffman-worst", grid=[0.5, 0.75])
    assert [r["p1"] for r in rows] == [0.5, 0.75]
    assert rows[0]["huffman"] == pytest.approx(0.5)
    rows = redundancy_curves("type1-worst", grid=[0.8], n_states=2)
    assert rows[0]["type1"] == pytest.approx(
        huffman_worst_redundancy(0.8) - delta_type1(0.8, 2), abs=1e-12)
    rows = redundancy_curves("type2-worst", grid=[0.6])
    assert rows[0]["type2"] == pytest.approx(
        huffman_worst_redundancy(0.6) - delta_type2(0.6), abs=1e-12)
    rows = redundancy_curves("uniform-huffman", grid=[80, 96])
    assert rows[0]["mean_bits"] == pytest.approx(6.4)
    assert rows[1]["right_weight"] == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        redundancy_curves("no-such-curve")


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
                        lambda nexts: calls.append(1) or real(nexts))
    table = build_saeds_case2(SIX, [3, 2, 2, 2, 2, 1])
    assert calls == []                 # building ranks without the cache
    rep = stationary_distribution(table, SIX)
    est = monte_carlo_rate(table, SIX, 10 ** 4, seed=3)
    assert validate_aeds(table).ergodicity == table.ergodicity()
    assert abs(est.bits_per_symbol - rep.mean_bits) < 5 * est.stderr
    assert len(calls) == 1
