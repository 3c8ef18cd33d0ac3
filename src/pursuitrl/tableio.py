"""Tab-separated persistence for learned weight/value tables.

Format: ``# key = repr(value)`` header lines describing the run
parameters, then one ``state<TAB>action<TAB>weight`` row per entry,
sorted by the encoded keys. Values are written with ``repr`` so floats
survive a save/load round trip bit-exactly.
"""

from __future__ import annotations

import ast
from typing import Callable, Mapping

Encoder = Callable[[object], str]
Decoder = Callable[[str], object]


def save_table(path, entries: Mapping, meta: Mapping[str, object] | None = None,
               encode_state: Encoder = repr, encode_action: Encoder = repr) -> None:
    """Write ``{(state, action): weight}`` entries with a metadata header."""
    rows = sorted(
        (encode_state(state), encode_action(action), repr(weight))
        for (state, action), weight in entries.items()
    )
    with open(path, "w") as handle:
        for key, value in (meta or {}).items():
            handle.write(f"# {key} = {value!r}\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")


def load_table(path, decode_state: Decoder = ast.literal_eval,
               decode_action: Decoder = ast.literal_eval):
    """Read a table written by :func:`save_table`.

    Returns ``(entries, meta)`` where meta values are parsed back with
    ``ast.literal_eval``.
    """
    entries: dict = {}
    meta: dict[str, object] = {}
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = ast.literal_eval(value.strip())
                continue
            state_s, action_s, weight_s = line.split("\t")
            entries[(decode_state(state_s), decode_action(action_s))] = float(weight_s)
    return entries, meta
