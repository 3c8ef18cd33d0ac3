"""Tab-separated writer of the learned weight/value tables; CSV writer of
a run's block, trial and trajectory logs, and checked reader of every log.

A table file holds ``# key = repr(value)`` header lines with the run
parameters, then one ``state<TAB>action<TAB>weight`` row per entry, sorted
as whole lines. :func:`hmrl.save_upper_banks` and
:func:`q_learning.save_q_table` spell the rows (the hunters' states by the
per-grid string tables of :mod:`hmrl`), and :func:`save_table` orders and
writes them. Values are spelled by ``repr``, which is exact for floats.
"""

from __future__ import annotations

import csv
from typing import Callable, Iterable, Mapping, Sequence


def save_table(path, rows: list[str], meta: Mapping[str, object]) -> None:
    """Write encoded ``state<TAB>action<TAB>weight`` lines under a metadata header.

    ``rows`` is sorted in place as whole lines; a tab sorts below every
    printable character, so that is the order of the (state, action,
    weight) texts.
    """
    rows.sort()
    with open(path, "w") as handle:
        for key, value in meta.items():
            handle.write(f"# {key} = {value!r}\n")
        handle.writelines(rows)


def save_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """``header`` then ``rows`` by ``csv.writer``: ``None`` as an empty cell, a float by repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path, header: Sequence[str], parse_row: Callable[..., object]) -> list:
    """``parse_row(*fields)`` of every line below ``header``; no row spans lines.

    Each distinct line is parsed once: a repeated line yields the same
    object. A row that does not parse, or has not one field per header
    column, raises ``ValueError`` naming the file, the line and the row;
    a file with no row below its header raises ``<path>: no rows``, and
    one that is not UTF-8 ``<path>: <the decoder's message>``.
    """
    try:
        with open(path, newline="") as handle:
            found = next(csv.reader(handle), None)
            if found != list(header):
                raise ValueError(f"{path}:1: expected header {list(header)}, got {found}")
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
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no rows")
    return rows
