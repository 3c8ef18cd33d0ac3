import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import PSParams, check_suppression
from pursuitrl.env import grid_for
from pursuitrl.experiment import ExperimentConfig
from pursuitrl.hmrl import SPELLING_KEYS, reinforce_upper, save_upper_banks
from pursuitrl.profit_sharing import WeightTable
from pursuitrl.tableio import save_table


CONFIG = ExperimentConfig()


def test_params_require_wide_discount():
    with pytest.raises(ValueError):
        PSParams(discount=4.0, rule_bound=4)
    PSParams(discount=5.0, rule_bound=4)


# Rule states and actions are ids: states 10 and 11, actions 0 and 1.
S_A, S_B, A, B = 10, 11, 0, 1


def rule_trace(*rules):
    """An upper trace that fires one (state, action) rule per step, lone prey."""
    return [((state,), action, None) for state, action in rules]


def test_reinforce_single_rule():
    table = WeightTable()
    trace = rule_trace((S_A, A))
    reinforce_upper(table, trace, 100.0, replace(CONFIG, upper_decay=0.2))
    assert reference.rule_weight(table, S_A, A) == 100.0
    assert len(trace) == 0


def test_reinforce_two_rules():
    table = WeightTable()
    trace = rule_trace((S_A, A), (S_B, B))     # S_B fired last, credited first
    reinforce_upper(table, trace, 100.0, replace(CONFIG, upper_decay=0.2))
    assert reference.rule_weight(table, S_B, B) == 100.0
    assert reference.rule_weight(table, S_A, A) == pytest.approx(20.0, rel=1e-15)


def test_repeated_rule_gets_both_shares():
    fired = [(S_A, A), (S_B, B), (S_A, A)]
    expected = reference.profit_sharing(fired, 100.0, 5.0)
    table = WeightTable()
    reinforce_upper(table, rule_trace(*fired), 100.0, replace(CONFIG, upper_decay=0.2))
    assert set(reference.rule_weights(table)) == set(expected)
    for rule, total in expected.items():
        assert reference.rule_weight(table, *rule) == pytest.approx(total, rel=1e-15)


def test_empty_trace_with_reward_is_protocol_misuse():
    with pytest.raises(ValueError):
        reinforce_upper(WeightTable(), [], 100.0, CONFIG)


def test_zero_reward_leaves_table_unchanged():
    table = WeightTable()
    table.add(S_A, A, 3.0)
    trace = rule_trace((S_A, A), (S_B, B))
    reinforce_upper(table, trace, 0.0, CONFIG)
    assert reference.rule_weights(table) == {(S_A, A): 3.0}
    assert len(trace) == 0


def test_credit_conservation_matches_closed_form():
    decay = 0.8
    for length in (1, 3, 10, 40):
        table = WeightTable()
        fired = [(i, A) for i in range(length)]
        reinforce_upper(table, rule_trace(*fired), 100.0,
                        replace(CONFIG, upper_decay=decay, atf_enabled=False))
        total = sum(table.weight)
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


# A side-7 module of hunter 0: goal cell ``state`` in prey bank ``state % 2``.
GRID = grid_for(7)


def module(state: int) -> int:
    return state % 2 * GRID.size ** 3 + state


def test_weight_table_round_trip_is_bit_exact(tmp_path):
    table = WeightTable()
    rng = Random(9)
    for i in range(200):
        table.add(module((i % 7) * 5 + (i * 3) % 5), i % 4, rng.uniform(-1e3, 1e3) / 3.0)
    save_upper_banks(tmp_path, [table], GRID, {"upper_decay": 0.8})
    loaded = {}
    for prey in (0, 1):
        bank, meta = reference.load_weights(tmp_path / f"upper_h0_p{prey}.tsv",
                                            lambda text: reference.module_key(GRID, text),
                                            reference.cell_ids(GRID).__getitem__)
        assert {reference.unpack(state, 7).prey for state in bank.states} <= {prey}
        assert meta == {"upper_decay": 0.8}
        loaded.update(reference.rule_weights(bank))
    assert ({rule: weight.hex() for rule, weight in loaded.items()}
            == {rule: weight.hex() for rule, weight in reference.rule_weights(table).items()})


def assert_banks_spelled_as_repr(table: WeightTable) -> None:
    """Hunter 0's bank files of ``table`` hold the ``repr`` of every rule's
    plain key, target and weight, sorted under the header."""
    banks: dict[int, list[str]] = {0: [], 1: []}
    for state, cell, weight in reference.table_rules(table):
        key = reference.unpack(state, 7)
        banks[key.prey].append(f"{reference.plain(key)!r}\t"
                               f"{reference.plain(reference.position(cell, 7))!r}\t{weight!r}\n")
    with tempfile.TemporaryDirectory() as tmp:
        save_upper_banks(Path(tmp), [table], GRID, {"upper_decay": 0.8})
        for prey, rows in banks.items():
            expected = Path(tmp) / "expected.tsv"
            save_table(expected, rows, {"default_weight": 0.0, "upper_decay": 0.8})
            saved = Path(tmp) / f"upper_h0_p{prey}.tsv"
            assert saved.read_bytes() == expected.read_bytes()


@settings(max_examples=100, deadline=None)
@given(adds=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3),
                               st.sampled_from((0.0, -0.0, 0.1, 0.2, -0.3, 2.5, 1e-300))),
                     max_size=80))
# Ten rules of weight 0.1, one cancelled to 0.0, one added as -0.0.
@example(adds=[(s, s % 3, 0.1) for s in range(10)] + [(0, 0, -0.1), (20, 1, -0.0)])
def test_save_weights_spells_repeated_weights_as_repr(adds):
    table = WeightTable()
    for state, action, amount in adds:
        table.add(module(state), action, amount)
    assert_banks_spelled_as_repr(table)


def test_a_bank_spells_its_weights_across_spelling_spans():
    # Prey 0's bank holds two spelling spans of modules, with one and two
    # rules by turns, and distinct weights between recurring ones.
    table = WeightTable()
    rng = Random(5)
    for i in range(3 * SPELLING_KEYS):
        amount = float(i % 5 - 2) if i % 4 == 0 else rng.uniform(-1e3, 1e3)
        table.add(i * 2 // 3, i % 3, amount)
    assert len(table.states) == 2 * SPELLING_KEYS
    assert_banks_spelled_as_repr(table)


@settings(max_examples=200, deadline=None)
@given(adds=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                               st.sampled_from((0.0, -0.0, 1.0, -2.5, 1e-300))),
                     max_size=60))
def test_rule_index_lists_each_rule_of_a_state_once(adds):
    table = WeightTable()
    first_added: dict = {}          # state -> action -> rule id, in first-add order
    expected: dict = {}
    for state, action, amount in adds:
        table.add(state, action, amount)
        actions = first_added.setdefault(state, {})
        if action not in actions:
            actions[action] = len(expected)
        expected[state, action] = expected.get((state, action), 0.0) + amount
    # A state's index is its first rule id, and its chain walks its ids in first-add order.
    assert table.states == {state: next(iter(actions.values()))
                            for state, actions in first_added.items()}
    reached: list = []
    for state, actions in first_added.items():
        chain = [table.states[state]]
        while chain[-1] >= 0 and len(chain) <= len(table):
            chain.append(table.next_rule[chain[-1]])
        assert chain[-1] == -1              # every chain ends, at -1
        assert chain[:-1] == list(actions.values())
        reached += chain[:-1]
    # Each rule id is reached from exactly one state.
    assert sorted(reached) == list(range(len(table)))
    for state, actions in first_added.items():
        assert [table.cell[rule] for rule in reference.rule_ids(table, state)] == list(actions)
    assert (len(table) == len(expected) == len(table.weight) == len(table.cell)
            == len(table.next_rule))
    assert ({rule: weight.hex() for rule, weight in reference.rule_weights(table).items()}
            == {rule: weight.hex() for rule, weight in expected.items()})


def test_weight_table_holds_a_rule_in_at_most_150_bytes():
    # 20,000 modules with packed-size keys, one in eight with a second
    # rule: about the shape of a trained table (most modules hold one rule).
    start = tracemalloc.is_tracing()
    if not start:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = WeightTable()
        for i in range(20_000):
            module = 1_000_003 + 37 * i
            table.add(module, i % 49, 1.5)
            if i % 8 == 0:
                table.add(module, (i + 1) % 49, 2.5)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not start:
            tracemalloc.stop()
    assert len(table) == 22_500
    assert size / len(table) <= 150


def test_load_weights_rejects_nonzero_default(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("# default_weight = 0.5\n10\t0\t1.0\n")
    with pytest.raises(ValueError, match="weights.tsv.*default_weight"):
        reference.load_weights(path, int, int)


def test_load_weights_names_malformed_line(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("# default_weight = 0.0\n10\t0\t1.0\n11\t1\n")
    with pytest.raises(ValueError, match=r"weights\.tsv:3: .*'11\\t1'"):
        reference.load_weights(path, int, int)


def test_load_weights_names_repeated_row(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("# default_weight = 0.0\n10\t0\t1.0\n10\t1\t2.0\n10\t0\t3.0\n")
    with pytest.raises(ValueError, match=r"weights\.tsv:4: .* line 2"):
        reference.load_weights(path, int, int)
