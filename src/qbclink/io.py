"""Plain-text artifacts: complex matrix files and key-value config files.

Matrix format::

    N_r N_t
    re+imj re+imj ...        (N_r lines of N_t entries)

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.

Config format: one ``key = value`` assignment per line, ``#`` comments and
blank lines ignored.  A key is a plain ``name`` or ``name[i].field``, one field
of entry ``i`` of a list of flat tables; no other shape is read, e.g.::

    nt = 8
    spacing = 0.5
    paths[0].eta = 0.2
    paths[0].phase = 0.0

Values parse as int, then float, then bare string.  Texts are layers, each
parsed alone: a later one replaces what earlier ones assign, a plain name its
value and ``name[i].field`` one field of entry ``i`` (made if absent).  Merged
list indices must fill 0..k-1 contiguously.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def matrix_to_text(matrix: np.ndarray) -> str:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    n_rx, n_tx = matrix.shape
    lines = [f"{n_rx} {n_tx}"]
    for row in matrix:
        lines.append(" ".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or not all(tok.isdecimal() and int(tok) >= 1 for tok in header):
        raise ValueError(f"matrix header must be 'N_r N_t', two integers of at least 1, "
                         f"got {lines[0]!r}")
    n_rx, n_tx = int(header[0]), int(header[1])
    if len(lines) != n_rx + 1:
        raise ValueError(f"expected {n_rx} matrix rows, got {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    for i, tokens in enumerate(rows):  # before an array of the header's size
        if len(tokens) != n_tx:
            raise ValueError(f"row {i} has {len(tokens)} entries, expected {n_tx}")
    out = np.array([[complex(tok) for tok in tokens] for tokens in rows], dtype=complex)
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix file contains non-finite entries")
    return out


def write_matrix(path, matrix: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(matrix_to_text(matrix))


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_text(fh.read())


# a plain key, or one field of an entry of a list of tables
_KEY = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\]\.([A-Za-z_][A-Za-z0-9_]*))?")


def parse_scalar(raw: str):
    """Interpret a config value: int, else float, else bare string."""
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(*texts: str, sources=()) -> dict:
    """Parse config texts, each a layer over those before, into scalars and
    lists of flat tables; ``sources[i]``, where given, names text ``i`` in the
    errors of its lines.

    Raises
    ------
    ConfigError
        On malformed lines, keys of any other shape, duplicate assignments or a
        name used both plainly and as a list within one text, or merged list
        indices that leave gaps.
    """
    root: dict = {}
    for i, text in enumerate(texts):
        where = f"{sources[i]}: " if i < len(sources) else ""
        layer: dict = {}
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            at = f"{where}line {lineno}"
            if "=" not in line:
                raise ConfigError(f"{at}: expected 'key = value', got {line!r}")
            key, raw_value = (part.strip() for part in line.split("=", 1))
            match = _KEY.fullmatch(key)
            if match is None:
                raise ConfigError(f"{at}: key {key!r} is not 'name' or 'name[i].field'")
            name, index, field = match.groups()
            if index is None:
                table, slot = layer, name
            else:
                # a list is built as {index: table} until every text is read
                items = layer.setdefault(name, {})
                if not isinstance(items, dict):
                    raise ConfigError(f"{at}: {name!r} is both list and scalar")
                table, slot = items.setdefault(int(index), {}), field
            if slot in table:
                raise ConfigError(f"{at}: duplicate key {key!r}")
            table[slot] = parse_scalar(raw_value)
        for name, value in layer.items():
            if isinstance(value, dict) and isinstance(root.get(name), dict):
                for index, table in value.items():
                    root[name].setdefault(index, {}).update(table)
            else:
                root[name] = value
    for name, items in root.items():
        if isinstance(items, dict):
            indices = sorted(items)
            if indices != list(range(len(indices))):
                raise ConfigError(f"list {name!r} has gaps: indices {indices}")
            root[name] = [items[i] for i in indices]
    return root


def load_config(path, *overrides: str, sources=()) -> dict:
    """``parse_config`` of the file at ``path``, which its errors name, and
    then of ``overrides``."""
    with open(path) as fh:
        return parse_config(fh.read(), *overrides, sources=(path, *sources))
