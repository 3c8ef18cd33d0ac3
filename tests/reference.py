"""Reference implementations and oracles the tests check the program against.

The grid, target-choice and world-step references work on positions and
named keys by direct geometry, the way the program did before its tables
were integer-coded, and share no code with the :class:`pursuitrl.env.Grid`
tables; they convert the program's cell-id world states at their
boundary. Plain Profit Sharing and value iteration are the textbook
algorithms the two learning layers reduce to; the Profit Sharing
suppression check (``PSParams``, ``check_suppression``) states the
condition on the generic algorithm's share ratio. The lower layer's action
pick is kept in the form that copies the scored row for every call.
``gain_ratio`` scores one split with the tree's own scorer;
the gain-ratio oracle works from probability lists over the instances. The
learned-table readers invert the program's table writers; no command
reads a table back.
"""

from __future__ import annotations

import ast
import csv
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import NamedTuple

from pursuitrl.env import (ACTION_BY_LABEL, ACTION_LABELS, ACTIONS, N_HUNTERS, N_PREY, Grid,
                           WorldState, below, grid_for)
from pursuitrl.experiment import run_meta
from pursuitrl.hmrl import lower_state_texts
from pursuitrl.knowledge import (ATTRIBUTES, INSTANCE_HEADER, Instance, Split, _entropy,
                                 _split_score, format_rules)
from pursuitrl.profit_sharing import WeightTable
from pursuitrl.q_learning import QTable


# The action indices, named by their file labels.
STAY, UP, DOWN, RIGHT, LEFT = ACTIONS
# (dx, dy) of each move, x east and y south, written out apart from env.DELTAS.
DELTA = {STAY: (0, 0), UP: (0, -1), DOWN: (0, 1), RIGHT: (1, 0), LEFT: (-1, 0)}


class ModuleKey(NamedTuple):
    """Upper-layer rule state: one module per (hunter, peer) pair per prey."""

    hunter: int
    prey: int
    own: tuple[int, int]
    peer: tuple[int, int]
    goal: tuple[int, int]


def cell_id(pos, side: int) -> int:
    return pos[0] * side + pos[1]


def position(cell: int, side: int) -> tuple[int, int]:
    return divmod(cell, side)


def make_world(hunters, prey, alive=(True, True), side=7) -> WorldState:
    """A cell-id world state from hunter and prey ``(x, y)`` positions."""
    return WorldState(grid_for(side), [cell_id(h, side) for h in hunters],
                      [cell_id(p, side) for p in prey], list(alive))


def positions(state: WorldState) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The hunter and prey positions of a cell-id world state."""
    side = state.grid.side
    return ([position(cell, side) for cell in state.hunters],
            [position(cell, side) for cell in state.prey])


def lower_state(offset, prey: int, side: int) -> int:
    """Lower-layer state id of a ``(dx, dy)`` offset and a prey, by direct arithmetic."""
    span = 2 * side - 1
    return ((offset[0] + side - 1) * span + offset[1] + side - 1) * N_PREY + prey


def pack(key: ModuleKey, side: int) -> int:
    """Packed row key of a module: (hunter, prey, own, peer, goal) in mixed radix."""
    n = side * side
    packed = key.hunter * N_PREY + key.prey
    for cell in (key.own, key.peer, key.goal):
        packed = packed * n + cell_id(cell, side)
    return packed


def unpack(packed: int, side: int) -> ModuleKey:
    """The module a packed row key names; the inverse of :func:`pack`."""
    n = side * side
    rest, goal = divmod(packed, n)
    rest, peer = divmod(rest, n)
    rest, own = divmod(rest, n)
    hunter, prey = divmod(rest, N_PREY)
    return ModuleKey(hunter, prey, position(own, side), position(peer, side),
                     position(goal, side))


def plain(value):
    """``value`` with every named tuple in it turned into a plain tuple."""
    return tuple(map(plain, value)) if isinstance(value, tuple) else value


def save_learned_tables(out_dir, result) -> None:
    """The table files of :func:`pursuitrl.experiment.save_learned_tables`,
    written from decoded keys: each row is ``repr`` of the plain state,
    action and weight, and a file's rows are sorted as whole lines."""
    side = result.config.grid_side
    meta = run_meta(result.config)
    span = 2 * side - 1

    def write(name, header, rows):
        with open(Path(out_dir) / name, "w") as handle:
            handle.writelines(f"# {key} = {value!r}\n" for key, value in header.items())
            handle.writelines(sorted(rows))

    for agent in result.agents:
        banks: dict[int, list[str]] = {prey: [] for prey in range(N_PREY)}
        for state, cell, weight in table_rules(agent.upper):
            key = unpack(state, side)
            banks[key.prey].append(
                f"{plain(key)!r}\t{position(cell, side)!r}\t{weight!r}\n")
        for prey, rows in banks.items():
            write(f"upper_h{agent.index}_p{prey}.tsv", {"default_weight": 0.0, **meta}, rows)
        rows = []
        for (state, action), value in agent.q.values.items():
            offset, prey = divmod(state // N_PREY, span), state % N_PREY
            dx, dy = offset[0] - (side - 1), offset[1] - (side - 1)
            rows.append(f"{((dx, dy), prey)!r}\t{ACTION_LABELS[action]}\t{value!r}\n")
        write(f"q_h{agent.index}.tsv",
              {"alpha": agent.q.alpha, "gamma": agent.q.gamma, **meta}, rows)


def upper_table(rules: dict, side: int) -> WeightTable:
    """A packed weight table from ``{(ModuleKey, target (x, y)): weight}``."""
    table = WeightTable()
    for (key, target), weight in rules.items():
        table.add(pack(key, side), cell_id(target, side), weight)
    return table


def rule_ids(table: WeightTable, state: int) -> tuple[int, ...]:
    """The rule ids of ``state`` in first-add order."""
    rules = []
    rule = table.states.get(state, -1)
    while rule >= 0:
        rules.append(rule)
        rule = table.next_rule[rule]
    return tuple(rules)


def rule_weight(table: WeightTable, state: int, action: int) -> float:
    """The weight of a rule; an unseen rule reads 0.0."""
    for rule in rule_ids(table, state):
        if table.cell[rule] == action:
            return table.weight[rule]
    return 0.0


def table_rules(table: WeightTable):
    """``(state, action, weight)`` of every rule, state by state, each
    state's rules in first-add order."""
    for state in table.states:
        for rule in rule_ids(table, state):
            yield state, table.cell[rule], table.weight[rule]


def rule_weights(table: WeightTable) -> dict:
    """A weight table's rules as ``{(state, action): weight}``."""
    return {(state, action): weight for state, action, weight in table_rules(table)}


def load_table(path, decode_state=ast.literal_eval, decode_action=ast.literal_eval):
    """Read a table written by :func:`pursuitrl.tableio.save_table`.

    Returns ``(entries, meta)`` with states and actions parsed back by the
    decoders and meta values by ``ast.literal_eval``. A malformed line, or
    a second row for the same (state, action), raises ``ValueError``
    naming the file and the line(s).
    """
    entries: dict = {}
    first_line: dict = {}
    meta: dict[str, object] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    meta[key.strip()] = ast.literal_eval(value.strip())
                    continue
                state_s, action_s, weight_s = line.split("\t")
                key = decode_state(state_s), decode_action(action_s)
                entries[key] = float(weight_s)
            except (ValueError, SyntaxError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed table line {line!r}: "
                                 f"{exc}") from None
            if first_line.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: repeats the state and action of "
                                 f"line {first_line[key]}: {line!r}")
    return entries, meta


def load_weights(path, decode_state, decode_action) -> tuple[WeightTable, dict[str, object]]:
    """Read a :func:`pursuitrl.profit_sharing.save_weights` table, states and
    actions by the decoders of their text; each row is one
    :meth:`WeightTable.add`, in file order."""
    entries, meta = load_table(path, decode_state, decode_action)
    default = meta.pop("default_weight", 0.0)
    if default != 0.0:
        raise ValueError(f"{path}: default_weight must be 0.0, got {default!r}")
    table = WeightTable()
    for (state, action), weight in entries.items():
        table.add(state, action, weight)
    return table, meta


def set_q_value(table: QTable, state, action: int, value: float) -> None:
    """Write one Q entry, marking the slot written."""
    table.rows.setdefault(state, [0.0] * len(ACTIONS))[action] = value
    table.written[state] = table.written.get(state, 0) | 1 << action


def load_q_table(path, decode_state) -> tuple[QTable, dict[str, object]]:
    """Read a :func:`pursuitrl.q_learning.save_q_table` table, states by
    ``decode_state`` of their text and actions by label."""
    entries, meta = load_table(path, decode_state=decode_state,
                               decode_action=ACTION_BY_LABEL.__getitem__)
    table = QTable(alpha=float(meta.pop("alpha")), gamma=float(meta.pop("gamma")))
    for (state, action), value in entries.items():
        set_q_value(table, state, action, value)
    return table, meta


@lru_cache(maxsize=None)
def cell_ids(grid: Grid) -> dict[str, int]:
    """Every cell id of ``grid`` by its persisted spelling ``(x, y)``."""
    return {repr(position): cell for cell, position in enumerate(grid.cells)}


def module_key(grid: Grid, text: str) -> int:
    """The packed module key that :func:`pursuitrl.hmrl.save_upper_banks` spells as ``text``."""
    hunter, prey, *cells = ast.literal_eval(text)
    if hunter not in range(N_HUNTERS) or prey not in range(N_PREY) or len(cells) != 3:
        raise ValueError(f"not a module of {N_HUNTERS} hunters and {N_PREY} prey: {text}")
    key = hunter * N_PREY + prey
    for x, y in cells:
        key = key * grid.size + cell_ids(grid)[f"({x}, {y})"]
    return key


def lower_state_ids(grid: Grid) -> dict[str, int]:
    """Every lower-layer state id by its :func:`pursuitrl.hmrl.lower_state_texts` spelling."""
    return {text: state for state, text in enumerate(lower_state_texts(grid))}


def moved(pos, action) -> tuple[int, int]:
    """Where ``action`` takes an agent at ``pos``, on or off the grid."""
    dx, dy = DELTA[action]
    return (pos[0] + dx, pos[1] + dy)


def legal_actions(pos, side: int):
    return tuple(a for a in ACTIONS if all(0 <= v < side for v in moved(pos, a)))


def neighbor_cells(pos, side: int) -> list[tuple[int, int]]:
    x, y = pos
    return [(x + dx, y + dy) for dx, dy in ((0, -1), (0, 1), (1, 0), (-1, 0))
            if 0 <= x + dx < side and 0 <= y + dy < side]


def candidate_cells(goal, side: int, mode: str = "ring2") -> tuple[tuple[int, int], ...]:
    gx, gy = goal
    if mode == "ring2":
        return tuple((x, y)
                     for x in range(max(0, gx - 2), min(side, gx + 3))
                     for y in range(max(0, gy - 2), min(side, gy + 3))
                     if 0 < abs(x - gx) + abs(y - gy) <= 2)
    if mode == "all":
        return tuple((x, y) for x in range(side) for y in range(side)
                     if (x, y) != (gx, gy))
    raise ValueError(mode)


def epsilon_greedy(table, state, legal, epsilon: float, rng: Random) -> int:
    """Greedy action index over ``legal`` with uniform tie-break, exploring
    with probability ``epsilon``; scores a copy of the row's legal slots."""
    if not legal:
        raise ValueError("no legal actions")
    if epsilon > 0.0 and rng.random() < epsilon:
        return legal[below(rng, len(legal))]
    row = table.rows.get(state)
    scores = [row[a] for a in legal] if row else [0.0] * len(legal)
    best_value = max(scores)
    if scores.count(best_value) == 1:
        return legal[scores.index(best_value)]
    ties = [a for a, value in zip(legal, scores) if value == best_value]
    return ties[below(rng, len(ties))]


def select_target(rules: dict, hunter: int, state: WorldState, rng: Random,
                  reach_discount: float = 2.0, exploration: float = 0.0,
                  mode: str = "ring2") -> tuple[tuple[int, int], int]:
    """Brute-force target choice over ``{(ModuleKey, (x, y)): weight}``:
    ``(target, prey)``, drawing from ``rng`` as the program does."""
    hunters, prey_positions = positions(state)
    own = hunters[hunter]
    alive = [j for j in range(N_PREY) if state.alive[j]]
    if len(alive) == 1:
        prey = alive[0]
    else:
        d = [abs(own[0] - prey_positions[j][0]) + abs(own[1] - prey_positions[j][1])
             for j in alive]
        prey = alive[0] if d[0] < d[1] else alive[1] if d[1] < d[0] else rng.choice(alive)
    goal = prey_positions[prey]
    keys = [ModuleKey(hunter, prey, own, peer, goal)
            for k, peer in enumerate(hunters) if k != hunter]
    cells = candidate_cells(goal, state.grid.side, mode)

    def score(cell):
        total = 0.0
        for key in keys:
            total += rules.get((key, cell), 0.0)
        return total / reach_discount ** (abs(own[0] - cell[0]) + abs(own[1] - cell[1]))

    if exploration > 0.0 and rng.random() < exploration:
        return rng.choice(cells), prey
    scores = {cell: score(cell) for cell in cells}
    top = max(scores.values())
    best = [cell for cell in cells if scores[cell] == top]
    return (best[0] if len(best) == 1 else rng.choice(best)), prey


def load_instances(path) -> list[Instance]:
    """An instance log read by a plain ``csv.reader`` loop, one new object
    per row; errors use the program's ``path:line: malformed row`` layout."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(INSTANCE_HEADER):
            raise ValueError(f"{path}:1: expected header {list(INSTANCE_HEADER)}, got {header}")
        instances = []
        for row in reader:
            try:
                if len(row) != len(INSTANCE_HEADER):
                    raise ValueError(f"expected {len(INSTANCE_HEADER)} fields, got {len(row)}")
                x, y, label = row
                instances.append(Instance(int(x), int(y), ACTION_BY_LABEL[label]))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: malformed row "
                                 f"{','.join(row)!r}: {exc!r}") from None
    return instances


def gain_ratio(instances, attribute: str, threshold: float) -> float:
    """Information gain of the binary split over its split entropy (base 2),
    scored by the program's own split scorer as :func:`induce_tree` scores
    its candidate splits."""
    if len(instances) < 2:
        raise ValueError("need at least 2 instances to split")
    idx = ATTRIBUTES.index(attribute)
    counts = [0] * len(ACTIONS)
    left_counts = [0] * len(ACTIONS)
    for inst in instances:
        counts[inst.label] += 1
        if inst[idx] <= threshold:
            left_counts[inst.label] += 1
    total, left_total = len(instances), sum(left_counts)
    if left_total == 0 or left_total == total:
        raise ValueError(f"degenerate split at {attribute} <= {threshold}")
    return _split_score(_entropy(counts, total), counts, left_counts, total, left_total)[1]


def brute_force_gain_ratio(instances, attribute: str, threshold) -> float:
    """Gain ratio of the split ``attribute <= threshold``, straight from
    probability lists over the instances of each side."""
    idx = 0 if attribute == "theta_X" else 1

    def entropy(group):
        total = 0.0
        for label in set(item.label for item in group):
            p = sum(1 for item in group if item.label == label) / len(group)
            total -= p * math.log2(p)
        return total

    left = [item for item in instances if item[idx] <= threshold]
    right = [item for item in instances if item[idx] > threshold]
    n = len(instances)
    gain = entropy(instances) - (len(left) / n) * entropy(left) \
        - (len(right) / n) * entropy(right)
    fractions = (len(left) / n, len(right) / n)
    split_info = -sum(f * math.log2(f) for f in fractions if f)
    return gain / split_info


def q_value(table, state, action: int) -> float:
    """A Q table's value of ``(state, action index)``; a state with no row reads 0.0."""
    row = table.rows.get(state)
    return 0.0 if row is None else row[action]


def classify(tree, theta_x: int, theta_y: int):
    """The action a decision tree predicts at an offset: the If-Then rules
    distilled from it must reproduce this."""
    node = tree
    while isinstance(node, Split):
        value = (theta_x, theta_y)[node.attribute]
        node = node.le_child if value <= node.threshold else node.gt_child
    return node.label


def rule_conditions(rule) -> tuple[tuple[str, str, float], ...]:
    """The ``(attribute, op, threshold)`` conditions of a rule, read back from
    the text :func:`format_rules` writes for it."""
    line = format_rules([rule]).splitlines()[1]      # "No.1", then the rule
    return tuple((attribute, op, float(threshold)) for attribute, op, threshold
                 in re.findall(r"(theta_[XY]) (<=|>) (\S+)", line.split(" Then ")[0]))


def rule_matches(conditions, theta_x: int, theta_y: int) -> bool:
    """Condition-by-condition match of a rule's ``(attribute, op, threshold)``
    conditions."""
    values = {"theta_X": theta_x, "theta_Y": theta_y}
    for attribute, op, threshold in conditions:
        value = values[attribute]
        if op == "<=":
            if not value <= threshold:
                return False
        elif not value > threshold:
            return False
    return True


def step(state: WorldState, hunter_actions, rng: Random):
    """One world tick with agent-id dicts: ``(next_state, captures, blocked)``,
    the captured prey's indices and the blocked agents' indices among the
    step's agents (hunters, then live prey), in priority order.

    Same rules and rng draws as :func:`pursuitrl.env.step`: each live prey
    moves by one ``rng.choice`` over its legal actions.
    """
    side = state.grid.side
    hunter_positions, prey_positions = positions(state)
    current, dest = {}, {}
    for i, action in enumerate(hunter_actions):
        pos = hunter_positions[i]
        current[f"h{i}"] = pos
        dest[f"h{i}"] = moved(pos, action)
    for j in range(N_PREY):
        if state.alive[j]:
            pos = prey_positions[j]
            current[f"p{j}"] = pos
            dest[f"p{j}"] = moved(pos, rng.choice(legal_actions(pos, side)))
    order = list(current)
    rng.shuffle(order)
    rank = {aid: k for k, aid in enumerate(order)}
    movers = {aid for aid in current if dest[aid] != current[aid]}
    blocked = []
    claims = {}
    for aid in movers:
        claims.setdefault(dest[aid], []).append(aid)
    for group in claims.values():
        group.sort(key=rank.__getitem__)
        for loser in group[1:]:
            movers.discard(loser)
            blocked.append(loser)
    stay_cells = {current[aid] for aid in current if aid not in movers}
    changed = True
    while changed:
        changed = False
        for aid in list(movers):
            if dest[aid] in stay_cells:
                movers.discard(aid)
                blocked.append(aid)
                stay_cells.add(current[aid])
                changed = True
    final = {aid: (dest[aid] if aid in movers else current[aid]) for aid in current}
    hunters = [final[f"h{i}"] for i in range(len(state.hunters))]
    prey_final = [final.get(f"p{j}", pos) for j, pos in enumerate(prey_positions)]
    alive = list(state.alive)
    captures = []
    for j in range(N_PREY):
        surrounded = all(cell in set(hunters) for cell in neighbor_cells(prey_final[j], side))
        if alive[j] and surrounded:
            captures.append(j)
            alive[j] = False
    agent_index = {aid: k for k, aid in enumerate(current)}
    blocked = [agent_index[aid] for aid in sorted(blocked, key=rank.__getitem__)]
    next_state = WorldState(state.grid, [cell_id(pos, side) for pos in hunters],
                            [cell_id(pos, side) for pos in prey_final], alive,
                            state.step_count + 1)
    return next_state, captures, blocked


def drawn_prey_moves(world: WorldState, rng: Random) -> list[int]:
    """Each live prey's uniform move, drawn by below() over the legal moves of
    its cell, in prey order; a dead prey's entry is never read."""
    legal = world.grid.legal
    return [legal[cell][below(rng, len(legal[cell]))] if alive else STAY
            for cell, alive in zip(world.prey, world.alive)]


def profit_sharing(rules: list, reward: float, discount: float) -> dict:
    """Plain Profit Sharing credit over fired rules, oldest first: the rule
    fired ``i`` steps before the reward gets ``reward / discount**i``, and
    a rule fired more than once sums its shares."""
    credit: dict = {}
    share = reward
    for rule in reversed(rules):
        credit[rule] = credit.get(rule, 0.0) + share
        share /= discount
    return credit


@dataclass(frozen=True)
class PSParams:
    """Generic Profit Sharing parameters: the share ratio between consecutive
    credit shares and the most effective rules competing for one input."""

    discount: float = 5.0     # divisor between consecutive credit shares
    rule_bound: int = 4       # most effective rules competing for one input

    def __post_init__(self) -> None:
        if self.discount < self.rule_bound + 1:
            raise ValueError(
                f"discount {self.discount} must be >= rule bound + 1 "
                f"({self.rule_bound + 1})"
            )


def check_suppression(params: PSParams, episode_length: int) -> bool:
    """Whether detour-only rules can never out-earn the regular ones.

    For every step i of an episode, the bound-many shares from step i to
    the end together must stay below the single share at step i-1.

    At the tightest admissible discount the margin shrinks below float
    resolution within a few dozen steps, so the inequality is evaluated
    in exact integer arithmetic: with the discount as p/q, both sides
    are scaled by p**length.
    """
    if episode_length < 1:
        raise ValueError("episode length must be >= 1")
    p, q = Fraction(params.discount).as_integer_ratio()
    # share at offset j, scaled by p**length: q**j * p**(length - j)
    p_pow = [1]
    q_pow = [1]
    for _ in range(episode_length + 1):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    tail = 0
    for i in range(episode_length, 0, -1):
        tail += q_pow[i] * p_pow[episode_length - i]
        if params.rule_bound * tail >= q_pow[i - 1] * p_pow[episode_length - i + 1]:
            return False
    return True


@dataclass
class ExplicitMDP:
    """Small enumerated MDP for oracle computations.

    ``transitions[(state, action)]`` lists ``(probability, next_state,
    reward)`` triples; probabilities per pair must sum to 1. Terminal
    states have value 0 and no outgoing transitions.
    """

    states: tuple
    actions: tuple
    transitions: dict
    gamma: float
    terminal: frozenset = field(default_factory=frozenset)


def solve_value_iteration(mdp: ExplicitMDP, tolerance: float = 1e-9,
                          max_sweeps: int = 100_000) -> dict:
    """Fixed point of the optimal Bellman backup, to ``tolerance``."""
    if not 0.0 <= mdp.gamma < 1.0:
        raise ValueError("value iteration needs gamma in [0, 1)")
    values = {s: 0.0 for s in mdp.states}
    for _ in range(max_sweeps):
        delta = 0.0
        for s in mdp.states:
            if s in mdp.terminal:
                continue
            best = -float("inf")
            for a in mdp.actions:
                if (s, a) not in mdp.transitions:
                    continue
                total = sum(
                    p * (r + mdp.gamma * values[ns])
                    for p, ns, r in mdp.transitions[(s, a)]
                )
                best = max(best, total)
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < tolerance:
            return values
    raise RuntimeError(f"value iteration did not converge in {max_sweeps} sweeps")


def greedy_action(mdp: ExplicitMDP, values: dict, state) -> object:
    """Best action under the solved values; ties go to action order."""
    best_a, best_v = None, -float("inf")
    for a in mdp.actions:
        if (state, a) not in mdp.transitions:
            continue
        total = sum(p * (r + mdp.gamma * values[ns])
                    for p, ns, r in mdp.transitions[(state, a)])
        if total > best_v:
            best_a, best_v = a, total
    return best_a
