"""Serialization of transition matrices: JSON documents, CSV, LaTeX, pretty
text, and an atomic on-disk cache.

The JSON schema is "fock-canon/matrix/v1": order is the full revlex list of
the degree, entries are sorted (rowIdx, colIdx, poly) triples with nonzero
polynomials only, so serialize -> parse -> serialize is byte-identical.  A
parsed document must also hold a unitriangular matrix in n-core blocks: unit
diagonal, no entry joining two blocks, and for D (E) every off-diagonal entry
in qZ[q] (q^-1 Z[q^-1]).
"""

from __future__ import annotations

import json
import os
import tempfile

from .canonical import TransitionMatrix, blocks
from .laurent import ONE, LaurentPoly
from .partitions import Partition, partition_label, revlex_order

SCHEMA = "fock-canon/matrix/v1"


class CacheMissError(KeyError):
    """No cached document for the requested matrix."""


class SchemaMismatchError(ValueError):
    """The document does not follow the expected schema or cannot be decoded."""


def matrix_to_doc(mat: TransitionMatrix) -> dict:
    index = {p: i for i, p in enumerate(mat.order)}
    entries = sorted(
        (index[r], index[c], poly.to_json())
        for (r, c), poly in mat.entries.items()
    )
    return {
        "schema": SCHEMA,
        "kind": mat.kind,
        "n": mat.n,
        "m": mat.m,
        "order": [list(p) for p in mat.order],
        "entries": [list(e) for e in entries],
    }


_OFF_DIAGONAL_RING = {"D": LaurentPoly.in_positive_ring, "E": LaurentPoly.in_negative_ring}


def matrix_from_doc(doc: dict) -> TransitionMatrix:
    if doc.get("schema") != SCHEMA:
        raise SchemaMismatchError(f"unexpected schema {doc.get('schema')!r}")
    kind, n, m = doc["kind"], int(doc["n"]), int(doc["m"])
    order = tuple(tuple(p) for p in doc["order"])
    if order != revlex_order(m):
        raise SchemaMismatchError("order is not the revlex partition list")
    core = {p: c for c, members in blocks(n, m).items() for p in members}
    in_ring = _OFF_DIAGONAL_RING.get(kind, bool)  # A and C: any nonzero entry
    entries = {}
    diagonal = 0
    last = (0, -1)  # strictly increasing from here keeps every row index >= 0
    for ri, ci, poly in doc["entries"]:
        value = LaurentPoly.from_json(poly)
        key = (ri, ci)
        if key <= last or ci < 0 or not value.coeffs:
            raise SchemaMismatchError(f"entry {list(key)} is zero or out of order")
        last = key
        row, col = order[ri], order[ci]
        if ri == ci:
            diagonal += value == ONE  # counts the unit diagonal entries
        elif core[row] != core[col] or not in_ring(value):
            raise SchemaMismatchError(
                f"entry {list(key)} leaves its {n}-core block or the {kind} ring"
            )
        entries[(row, col)] = value
    if diagonal != len(order):
        raise SchemaMismatchError("the diagonal is not all 1")
    return TransitionMatrix(kind, n, m, entries)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def matrix_to_json(mat: TransitionMatrix) -> str:
    return dumps(matrix_to_doc(mat))


def matrix_from_json(text: str) -> TransitionMatrix:
    return matrix_from_doc(json.loads(text))


# -- cache ---------------------------------------------------------------------


def cache_path(directory: str, kind: str, n: int, m: int) -> str:
    return os.path.join(directory, f"{kind}_n{n}_m{m}.json")


def cache_store(directory: str, mat: TransitionMatrix) -> str:
    """Write the matrix document atomically (temp file + rename)."""
    os.makedirs(directory, exist_ok=True)
    path = cache_path(directory, mat.kind, mat.n, mat.m)
    payload = matrix_to_json(mat)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def cache_load(directory: str, kind: str, n: int, m: int) -> TransitionMatrix:
    """Load a cached matrix.  Raises CacheMissError when there is no entry and
    SchemaMismatchError when the entry cannot be decoded or does not match
    its key."""
    path = cache_path(directory, kind, n, m)
    try:
        with open(path) as fh:
            doc = json.load(fh)
        # compare the key first: the checks of matrix_from_doc build the blocks
        # of the document's n and m
        if (doc["kind"], doc["n"], doc["m"]) != (kind, n, m):
            raise ValueError("it does not match its key")
        return matrix_from_doc(doc)
    except FileNotFoundError:
        raise CacheMissError(f"no cache entry {path}") from None
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise SchemaMismatchError(f"cache entry {path} cannot be decoded: {exc}") from exc


# -- text renderings -----------------------------------------------------------


def _grid(mat: TransitionMatrix, block: Partition | None, text):
    """The partitions shown (the whole order, or the n-core block `block`)
    and their cells: text(entry) where mat has an entry, "0" elsewhere."""
    parts = mat.order if block is None else blocks(mat.n, mat.m)[tuple(block)]
    index = {p: i for i, p in enumerate(parts)}
    cells = [["0"] * len(parts) for _ in parts]
    for (r, c), poly in mat.entries.items():
        if r in index and c in index:
            cells[index[r]][index[c]] = text(poly)
    return parts, cells


def render_pretty(mat: TransitionMatrix, block: Partition | None = None) -> str:
    parts, cells = _grid(mat, block, LaurentPoly.pretty)
    labels = [partition_label(p) for p in parts]
    width = [
        max([len(row[j]) for row in cells] + [1]) for j in range(len(parts))
    ]
    lw = max((len(s) for s in labels), default=1)
    lines = []
    for label, row in zip(labels, cells):
        body = " ".join(s.rjust(width[j]) for j, s in enumerate(row))
        lines.append(f"{label.rjust(lw)}: {body}")
    return "\n".join(lines) + "\n"


def render_csv(mat: TransitionMatrix, block: Partition | None = None) -> str:
    parts, cells = _grid(mat, block, LaurentPoly.pretty)
    lines = ["," + ",".join(partition_label(p) for p in parts)]
    for r, row in zip(parts, cells):
        lines.append(partition_label(r) + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def render_latex(mat: TransitionMatrix, block: Partition | None = None) -> str:
    parts, cells = _grid(mat, block, LaurentPoly.latex)
    lines = [r"\begin{array}{" + "c" * (len(parts) + 1) + "}"]
    rows = [
        " & ".join([partition_label(r, sep=" ")] + row) for r, row in zip(parts, cells)
    ]
    lines.append(" \\\\\n".join(rows))
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"


def render(mat: TransitionMatrix, fmt: str, block: Partition | None = None) -> str:
    if fmt == "json":
        return matrix_to_json(mat)
    if fmt == "csv":
        return render_csv(mat, block)
    if fmt == "latex":
        return render_latex(mat, block)
    if fmt == "pretty":
        return render_pretty(mat, block)
    raise ValueError(f"unknown format {fmt!r}")
