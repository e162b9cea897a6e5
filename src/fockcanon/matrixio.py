"""Serialization of transition matrices: JSON documents, CSV, LaTeX, pretty
text, and an atomic on-disk cache.

The JSON schema is "fock-canon/matrix/v1": order is the full revlex list of
the degree, entries are sorted (rowIdx, colIdx, poly) triples with nonzero
polynomials only, so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile

from .canonical import TransitionMatrix
from .laurent import LaurentPoly
from .partitions import Partition, n_core_quotient, revlex_order

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


def matrix_from_doc(doc: dict) -> TransitionMatrix:
    if doc.get("schema") != SCHEMA:
        raise SchemaMismatchError(f"unexpected schema {doc.get('schema')!r}")
    order = tuple(tuple(p) for p in doc["order"])
    if order != revlex_order(int(doc["m"])):
        raise SchemaMismatchError("order is not the revlex partition list")
    entries = {}
    last = (0, -1)  # strictly increasing from here keeps every row index >= 0
    for ri, ci, poly in doc["entries"]:
        value = LaurentPoly.from_json(poly)
        key = (ri, ci)
        if key <= last or ci < 0 or not value.coeffs:
            raise SchemaMismatchError(f"entry {list(key)} is zero or out of order")
        last = key
        entries[(order[ri], order[ci])] = value
    return TransitionMatrix(doc["kind"], int(doc["n"]), int(doc["m"]), order, entries)


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
            text = fh.read()
        mat = matrix_from_json(text)
    except FileNotFoundError:
        raise CacheMissError(f"no cache entry {path}") from None
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise SchemaMismatchError(f"cache entry {path} cannot be decoded: {exc}") from exc
    if (mat.kind, mat.n, mat.m) != (kind, n, m):
        raise SchemaMismatchError(f"cache entry {path} does not match its key")
    return mat


# -- text renderings -----------------------------------------------------------


def _label(p: Partition, sep: str = "") -> str:
    if not p:
        return "0"
    if any(x > 9 for x in p) and not sep:
        return "[" + ",".join(str(x) for x in p) + "]"
    return sep.join(str(x) for x in p)


def _selected(mat: TransitionMatrix, block: Partition | None):
    if block is None:
        return list(mat.order)
    out = []
    for p in mat.order:
        core, _ = n_core_quotient(p, mat.n)
        if core == tuple(block):
            out.append(p)
    return out


def render_pretty(mat: TransitionMatrix, block: Partition | None = None) -> str:
    parts = _selected(mat, block)
    labels = [_label(p) for p in parts]
    cells = [
        [mat.entry(r, c).pretty() for c in parts]
        for r in parts
    ]
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
    parts = _selected(mat, block)
    lines = ["," + ",".join(_label(p) for p in parts)]
    for r in parts:
        lines.append(
            _label(r) + "," + ",".join(mat.entry(r, c).pretty() for c in parts)
        )
    return "\n".join(lines) + "\n"


def render_latex(mat: TransitionMatrix, block: Partition | None = None) -> str:
    parts = _selected(mat, block)
    lines = [r"\begin{array}{" + "c" * (len(parts) + 1) + "}"]
    rows = []
    for r in parts:
        cells = [_label(r, sep=" ")] + [mat.entry(r, c).latex() for c in parts]
        rows.append(" & ".join(cells))
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
