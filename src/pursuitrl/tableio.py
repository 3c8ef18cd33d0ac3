"""Tab-separated persistence for learned weight/value tables, and the
checked reader of the CSV logs.

Format: ``# key = repr(value)`` header lines describing the run
parameters, then one ``state<TAB>action<TAB>weight`` row per entry,
sorted as whole lines. The writers of the two tables
(:func:`profit_sharing.save_weights`, :func:`q_learning.save_q_table`)
spell their rows, each state once by the encoder they are given (the
hunters' tables use the per-grid string tables of
:func:`hmrl.module_speller` and :func:`hmrl.lower_state_texts`), and
:func:`save_table` only orders and writes them. Values are written with
``repr`` so floats survive a save/load round trip bit-exactly.
"""

from __future__ import annotations

import ast
import csv
from typing import Callable, Mapping, Sequence

Encoder = Callable[[object], str]
Decoder = Callable[[str], object]


def save_table(path, rows: list[str], meta: Mapping[str, object] | None = None) -> None:
    """Write encoded ``state<TAB>action<TAB>weight`` lines under a metadata header.

    ``rows`` is sorted in place as whole lines; a tab sorts below every
    printable character, so that is the order of the (state, action,
    weight) texts.
    """
    rows.sort()
    with open(path, "w") as handle:
        for key, value in (meta or {}).items():
            handle.write(f"# {key} = {value!r}\n")
        handle.writelines(rows)


def load_table(path, decode_state: Decoder = ast.literal_eval,
               decode_action: Decoder = ast.literal_eval):
    """Read a table written by :func:`save_table`.

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


def load_csv(path, header: Sequence[str], parse_row: Callable[..., object]) -> list:
    """``parse_row(*fields)`` of every line below ``header``; no row spans lines.

    Each distinct line is parsed once: a repeated line yields the same
    object. A row that does not parse, or has not one field per header
    column, raises ``ValueError`` naming the file, the line and the row.
    """
    with open(path, newline="") as handle:
        found = next(csv.reader(handle), None)
        if found != list(header):
            raise ValueError(f"{path}: expected header {list(header)}, got {found}")
        parsed: dict[str, object] = {}
        rows = []
        for lineno, line in enumerate(handle, start=2):
            item = parsed.get(line)
            if item is None:
                row = next(csv.reader((line,)))
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    item = parsed[line] = parse_row(*row)
                except (ValueError, KeyError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row "
                                     f"{','.join(row)!r}: {exc!r}") from None
            rows.append(item)
        return rows
