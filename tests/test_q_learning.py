import math
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import ACTIONS, grid_for
from pursuitrl.hmrl import lower_state_texts
from pursuitrl.q_learning import QTable, epsilon_greedy, q_update, save_q_table
from reference import (RIGHT, STAY, UP, ExplicitMDP, greedy_action, load_q_table, lower_state,
                       lower_state_ids, q_value, set_q_value, solve_value_iteration)

GRID = grid_for(7)
STATE_IDS = lower_state_ids(GRID)


def test_q_update_terminal_arithmetic():
    table = QTable(alpha=0.1, gamma=0.9)
    q_update(table, "s", STAY, 100.0, None)
    assert q_value(table, "s", STAY) == 10.0


def test_q_update_decays_toward_bootstrap():
    table = QTable(alpha=0.1, gamma=0.9)
    set_q_value(table, "s", STAY, 10.0)
    q_update(table, "s", STAY, 0.0, "t")
    assert q_value(table, "s", STAY) == pytest.approx(9.0)


def test_two_state_chain_converges_to_closed_form():
    # A -go-> B (no reward), B -go-> B with reward r each arrival. "go" is
    # one of the five slots; r >= 0, so the idle zero slots never win max.
    gamma, r = 0.9, 10.0
    table = QTable(alpha=0.2, gamma=gamma)
    go = RIGHT
    for _ in range(2000):
        q_update(table, "A", go, 0.0, "B")
        q_update(table, "B", go, r, "B")
    assert q_value(table, "B", go) == pytest.approx(r / (1 - gamma), abs=1e-6)
    assert q_value(table, "A", go) == pytest.approx(gamma * r / (1 - gamma), abs=1e-6)


def test_epsilon_greedy_prefers_value():
    table = QTable(alpha=0.1, gamma=0.9)
    set_q_value(table, "s", UP, 5.0)
    set_q_value(table, "s", STAY, 1.0)
    picked = epsilon_greedy(table, "s", (UP, STAY), 0.0,
                            Random(0))
    assert picked == UP


def test_epsilon_greedy_uniform_over_ties():
    table = QTable(alpha=0.1, gamma=0.9)
    rng = Random(5)
    legal = (STAY, UP, RIGHT)
    counts = Counter(epsilon_greedy(table, "s", legal, 0.0, rng)
                     for _ in range(9000))
    for action in legal:
        assert abs(counts[action] - 3000) < 5 * math.sqrt(9000 * (1 / 3) * (2 / 3))


def test_epsilon_greedy_exploration_frequency():
    # With a unique argmax, a non-greedy outcome happens only via the
    # exploration branch picking one of the other k-1 actions.
    table = QTable(alpha=0.1, gamma=0.9)
    set_q_value(table, "s", UP, 5.0)
    legal = ACTIONS
    epsilon = 0.1
    rng = Random(13)
    draws = 100_000
    non_greedy = sum(
        epsilon_greedy(table, "s", legal, epsilon, rng) != UP
        for _ in range(draws)
    )
    expected = epsilon * (1 - 1 / len(legal))
    sigma = math.sqrt(draws * expected * (1 - expected))
    assert abs(non_greedy - draws * expected) < 5 * sigma


def test_epsilon_greedy_rejects_empty_legal_set():
    with pytest.raises(ValueError):
        epsilon_greedy(QTable(alpha=0.1, gamma=0.9), "s", (), 0.0, Random(0))


@st.composite
def greedy_cases(draw):
    """A table, a legal index tuple and an epsilon for ``epsilon_greedy``.

    ``legal`` is a cell's row of some grid (the shared full row included)
    or a permuted subset of every action, the full set included. The
    state's row is missing, all zeros, tied, signed zeros or arbitrary.
    """
    table = QTable(alpha=0.1, gamma=0.9)
    if draw(st.sampled_from(["grid", "permuted"])) == "grid":
        grid = grid_for(draw(st.integers(3, 9)))
        legal = grid.legal[draw(st.integers(0, grid.size - 1))]
    else:
        legal = tuple(draw(st.permutations(ACTIONS)))[:draw(st.integers(1, len(ACTIONS)))]
    values = draw(st.sampled_from([
        "missing", st.just(0.0), st.sampled_from([0.0, -0.0]), st.sampled_from([-1.0, 0.0, 2.5]),
        st.floats(-1e3, 1e3)]))
    if values != "missing":
        table.rows["s"] = draw(st.lists(values, min_size=len(ACTIONS), max_size=len(ACTIONS)))
    epsilon = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    return table, legal, epsilon


@settings(max_examples=500, deadline=None)
@given(case=greedy_cases(), seed=st.integers(0, 2**32 - 1))
def test_epsilon_greedy_matches_row_copying_reference(case, seed):
    table, legal, epsilon = case
    row = list(table.rows.get("s", ()))
    rng, reference_rng = Random(seed), Random(seed)
    assert (epsilon_greedy(table, "s", legal, epsilon, rng)
            == reference.epsilon_greedy(table, "s", legal, epsilon, reference_rng))
    assert rng.getstate() == reference_rng.getstate()
    assert list(table.rows.get("s", ())) == row


def absorbing_mdp(reward=7.0, gamma=0.9):
    return ExplicitMDP(
        states=("s", "end"),
        actions=("go",),
        transitions={("s", "go"): ((1.0, "end", reward),)},
        gamma=gamma,
        terminal=frozenset(("end",)),
    )


def test_value_iteration_single_rewarded_transition():
    values = solve_value_iteration(absorbing_mdp())
    assert values["s"] == pytest.approx(7.0, abs=1e-9)
    assert values["end"] == 0.0


def test_value_iteration_corridor_closed_form():
    # States 0..4, moving right; entering 4 pays r and terminates.
    gamma, r = 0.9, 100.0
    transitions = {}
    for s in range(4):
        reward = r if s + 1 == 4 else 0.0
        transitions[(s, "right")] = ((1.0, s + 1, reward),)
        transitions[(s, "stay")] = ((1.0, s, 0.0),)
    mdp = ExplicitMDP(states=tuple(range(5)), actions=("right", "stay"),
                      transitions=transitions, gamma=gamma,
                      terminal=frozenset((4,)))
    values = solve_value_iteration(mdp)
    for s in range(4):
        assert values[s] == pytest.approx(gamma ** (4 - s - 1) * r, rel=1e-9)


def test_value_iteration_convergence_cap():
    with pytest.raises(RuntimeError):
        solve_value_iteration(absorbing_mdp(gamma=0.999999), max_sweeps=1)


def random_deterministic_mdp(seed, n_states=10, n_actions=3, gamma=0.8):
    rng = Random(seed)
    states = tuple(range(n_states))
    actions = tuple(range(n_actions))
    transitions = {}
    for s in states:
        for a in actions:
            transitions[(s, a)] = ((1.0, rng.randrange(n_states),
                                    rng.choice((0.0, 1.0, 5.0, 10.0))),)
    return ExplicitMDP(states=states, actions=actions, transitions=transitions,
                       gamma=gamma)


def policy_evaluation(mdp, policy, tolerance=1e-12):
    values = {s: 0.0 for s in mdp.states}
    while True:
        delta = 0.0
        for s in mdp.states:
            if s in mdp.terminal:
                continue
            total = sum(p * (r + mdp.gamma * values[ns])
                        for p, ns, r in mdp.transitions[(s, policy[s])])
            delta = max(delta, abs(total - values[s]))
            values[s] = total
        if delta < tolerance:
            return values


def test_q_learning_matches_value_iteration_on_random_mdp():
    mdp = random_deterministic_mdp(17)
    oracle = solve_value_iteration(mdp)

    # Deterministic transitions make full-step Q-learning an exact
    # asynchronous Bellman sweep. Rewards are >= 0, so the two slots past
    # the MDP's three actions stay 0.0 and never raise a bootstrap's max.
    table = QTable(alpha=1.0, gamma=mdp.gamma)
    rng = Random(99)
    for _ in range(60_000):
        s = rng.choice(mdp.states)
        a = rng.choice(mdp.actions)
        _, ns, r = mdp.transitions[(s, a)][0]
        q_update(table, s, a, r, None if ns in mdp.terminal else ns)

    greedy = {}
    for s in mdp.states:
        assert max(q_value(table, s, a) for a in mdp.actions) == pytest.approx(
            oracle[s], abs=1e-3)
        greedy[s] = max(mdp.actions, key=lambda a: q_value(table, s, a))

    # Cross-check: evaluating the learned greedy policy reproduces the
    # optimal values (deterministic MDP, optimal policy recovered).
    evaluated = policy_evaluation(mdp, greedy)
    for s in mdp.states:
        assert evaluated[s] == pytest.approx(oracle[s], abs=1e-3)
    for s in mdp.states:
        assert greedy[s] == greedy_action(mdp, oracle, s) or (
            evaluated[s] == pytest.approx(oracle[s], abs=1e-6))


def test_values_stay_bounded_by_reward_horizon():
    # Rewards in [0, 100] and gamma 0.9 bound every value by 1000.
    rng = Random(3)
    table = QTable(alpha=0.5, gamma=0.9)
    states = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for _ in range(20_000):
        s = rng.choice(states)
        a = rng.choice(ACTIONS)
        ns = rng.choice(states)
        q_update(table, s, a, rng.choice((0.0, 100.0)), None if rng.random() < 0.05 else ns)
    assert all(0.0 <= v <= 1000.0 for v in table.values.values())


def test_update_is_idempotent_at_fixed_point():
    mdp = random_deterministic_mdp(4)
    oracle = solve_value_iteration(mdp, tolerance=1e-14)
    table = QTable(alpha=0.3, gamma=mdp.gamma)     # rewards >= 0: idle slots never win max
    for (s, a), ((_, ns, r),) in mdp.transitions.items():
        set_q_value(table, s, a, r + mdp.gamma * oracle[ns])
    before = dict(table.values)
    for (s, a), ((_, ns, r),) in mdp.transitions.items():
        q_update(table, s, a, r, None if ns in mdp.terminal else ns)
    for key in before:
        assert table.values[key] == pytest.approx(before[key], rel=1e-9)


def test_q_table_round_trip_bit_exact(tmp_path):
    table = QTable(alpha=0.1, gamma=0.9)
    rng = Random(8)
    for dx in range(-3, 4):
        for action in ACTIONS:
            set_q_value(table, lower_state((dx, -dx), rng.choice((0, 1)), 7), action,
                        rng.random() * 97)
    path = tmp_path / "q.tsv"
    save_q_table(path, table, lower_state_texts(GRID), {"note": "test"})
    loaded, meta = load_q_table(path, STATE_IDS.__getitem__)
    assert loaded.values == table.values
    assert loaded.alpha == table.alpha and loaded.gamma == table.gamma
    assert meta == {"note": "test"}


def test_load_q_table_names_malformed_line(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("# alpha = 0.1\n# gamma = 0.9\n((0, 1), 0)\tup\t2.5\n((1, 1), 0)\tup\n")
    with pytest.raises(ValueError, match=r"q\.tsv:4: .*\(\(1, 1\), 0\)"):
        load_q_table(path, STATE_IDS.__getitem__)


@pytest.mark.parametrize("state", ["((7, 0), 0)", "((0, 1), 2)", "5"])
def test_load_q_table_names_state_off_the_grid(tmp_path, state):
    path = tmp_path / "q.tsv"
    path.write_text(f"# alpha = 0.1\n# gamma = 0.9\n((0, 1), 0)\tup\t2.5\n{state}\tup\t1.0\n")
    with pytest.raises(ValueError, match=r"q\.tsv:4: "):
        load_q_table(path, STATE_IDS.__getitem__)


def test_q_table_lists_written_entries_only(tmp_path):
    # A backup that writes 0.0 is an entry; the other slots of its row are not.
    table = QTable(alpha=0.1, gamma=0.9)
    q_update(table, 3, RIGHT, 0.0, 4)
    q_update(table, 5, STAY, 100.0, None)
    assert table.values == {(3, RIGHT): 0.0, (5, STAY): 10.0}
    path = tmp_path / "q.tsv"
    save_q_table(path, table, lower_state_texts(GRID), {})
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert rows == ["((-6, -4), 1)\tstay\t10.0", "((-6, -5), 1)\tright\t0.0"]


def test_load_q_table_names_repeated_row(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("# alpha = 0.1\n# gamma = 0.9\n((0, 1), 0)\tup\t2.5\n"
                    "((0, 1), 0)\tdown\t1.0\n((0, 1), 0)\tup\t3.5\n")
    with pytest.raises(ValueError, match=r"q\.tsv:5: .* line 3"):
        load_q_table(path, STATE_IDS.__getitem__)
