from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.hmrl import ATFieldParams, reinforce_upper
from pursuitrl.profit_sharing import (
    PSParams,
    WeightTable,
    check_suppression,
    load_weights,
    save_weights,
)


def test_params_require_wide_discount():
    with pytest.raises(ValueError):
        PSParams(discount=4.0, rule_bound=4)
    PSParams(discount=5.0, rule_bound=4)


def rule_trace(*rules):
    """An upper trace that fires one (state, action) rule per step, lone prey."""
    return [((state,), action, None) for state, action in rules]


def test_reinforce_single_rule():
    table = WeightTable()
    trace = rule_trace(("sA", "a"))
    reinforce_upper(table, trace, 100.0, ATFieldParams(decay=0.2))
    assert table.get("sA", "a") == 100.0
    assert len(trace) == 0


def test_reinforce_two_rules():
    table = WeightTable()
    trace = rule_trace(("sA", "a"), ("sB", "b"))     # sB fired last, credited first
    reinforce_upper(table, trace, 100.0, ATFieldParams(decay=0.2))
    assert table.get("sB", "b") == 100.0
    assert table.get("sA", "a") == pytest.approx(20.0, rel=1e-15)


def test_repeated_rule_gets_both_shares():
    fired = [("sA", "a"), ("sB", "b"), ("sA", "a")]
    expected = reference.profit_sharing(fired, 100.0, 5.0)
    table = WeightTable()
    reinforce_upper(table, rule_trace(*fired), 100.0, ATFieldParams(decay=0.2))
    assert set(table.weights) == set(expected)
    for rule, total in expected.items():
        assert table.get(*rule) == pytest.approx(total, rel=1e-15)


def test_empty_trace_with_reward_is_protocol_misuse():
    with pytest.raises(ValueError):
        reinforce_upper(WeightTable(), [], 100.0, ATFieldParams())


def test_zero_reward_leaves_table_unchanged():
    table = WeightTable()
    table.add("s", "a", 3.0)
    trace = rule_trace(("s", "a"), ("t", "b"))
    reinforce_upper(table, trace, 0.0, ATFieldParams())
    assert table.weights == {("s", "a"): 3.0}
    assert len(trace) == 0


def test_credit_conservation_matches_closed_form():
    decay = 0.8
    for length in (1, 3, 10, 40):
        table = WeightTable()
        fired = [(f"s{i}", "a") for i in range(length)]
        reinforce_upper(table, rule_trace(*fired), 100.0, ATFieldParams(decay=decay),
                        gated=False)
        total = sum(table.weights.values())
        closed_form = 100.0 * (1 - decay**length) / (1 - decay)
        plain = sum(reference.profit_sharing(fired, 100.0, 1 / decay).values())
        assert total == pytest.approx(plain, rel=1e-12)
        assert total == pytest.approx(closed_form, rel=1e-12)


def suppression_oracle(rule_bound, discount, length):
    # Direct summation of the definition in exact rationals; shares no
    # code with the implementation's scaled cumulative pass.
    from fractions import Fraction

    shares = [Fraction(discount) ** -i for i in range(length + 1)]
    return all(
        rule_bound * sum(shares[i:length + 1]) < shares[i - 1]
        for i in range(1, length + 1)
    )


def test_suppression_examples_match_oracle():
    ok = PSParams(discount=5.0, rule_bound=4)
    assert check_suppression(ok, 10) is True
    assert suppression_oracle(4, 5.0, 10) is True

    narrow = PSParams.__new__(PSParams)       # bypass the M >= L+1 guard
    object.__setattr__(narrow, "discount", 4.0)
    object.__setattr__(narrow, "rule_bound", 4)
    assert check_suppression(narrow, 10) is False
    assert suppression_oracle(4, 4.0, 10) is False

    single = PSParams(discount=2.0, rule_bound=1)
    assert check_suppression(single, 1) is True


def test_suppression_agrees_with_oracle_on_grid():
    for rule_bound in range(1, 5):
        for discount in (rule_bound + 1, rule_bound + 2.5, rule_bound * 1.0 or 1.0):
            params = PSParams.__new__(PSParams)
            object.__setattr__(params, "discount", float(discount))
            object.__setattr__(params, "rule_bound", rule_bound)
            for length in (1, 2, 7, 25):
                assert (check_suppression(params, length)
                        == suppression_oracle(rule_bound, discount, length))


def test_suppression_rejects_bad_length():
    with pytest.raises(ValueError):
        check_suppression(PSParams(), 0)


def test_weight_table_round_trip_is_bit_exact(tmp_path):
    table = WeightTable()
    rng = Random(9)
    for i in range(200):
        state = (i % 7, (i * 3) % 5)
        table.add(state, f"a{i % 4}", rng.uniform(-1e3, 1e3) / 3.0)
    path = tmp_path / "weights.tsv"
    save_weights(path, table, {"upper_decay": 0.8})
    loaded, meta = load_weights(path)
    assert loaded.weights == table.weights
    # A loaded table adds its rules in the file's sorted text order.
    assert ({state: set(actions) for state, actions in loaded.states.items()}
            == {state: set(actions) for state, actions in table.states.items()})
    assert meta == {"upper_decay": 0.8}


@settings(max_examples=200, deadline=None)
@given(adds=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                               st.sampled_from((0.0, -0.0, 1.0, -2.5, 1e-300))),
                     max_size=60))
def test_rule_index_lists_each_rule_of_a_state_once(adds):
    table = WeightTable()
    first_added: dict = {}
    for state, action, amount in adds:
        table.add(state, action, amount)
        first_added.setdefault(state, {}).setdefault(action, None)
    assert table.states == {state: tuple(actions) for state, actions in first_added.items()}
    assert sorted((s, a) for s, actions in table.states.items() for a in actions) \
        == sorted(table.weights)


def test_load_weights_rejects_nonzero_default(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("# default_weight = 0.5\n('s',)\t'a'\t1.0\n")
    with pytest.raises(ValueError, match="weights.tsv.*default_weight"):
        load_weights(path)


def test_load_weights_names_malformed_line(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("# default_weight = 0.0\n('s',)\t'a'\t1.0\n('t',)\t'b'\n")
    with pytest.raises(ValueError, match=r"weights\.tsv:3: .*\('t',\)"):
        load_weights(path)
