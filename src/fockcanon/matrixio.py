"""Serialization of transition matrices: JSON documents, CSV, LaTeX, pretty
text, and an atomic on-disk cache.

The JSON schema is "fock-canon/matrix/v1": order is the full revlex list of
the degree, entries are sorted (rowIdx, colIdx, poly) triples with nonzero
polynomials only, so serialize -> parse -> serialize is byte-identical.  A
parsed document must also hold a unitriangular matrix in n-core blocks: unit
diagonal, no entry joining two blocks, and for D (E) every off-diagonal entry
in qZ[q] (q^-1 Z[q^-1]).

A document has many entries but few distinct polynomials, so each distinct
polynomial is decoded and checked (``matrix_from_doc``), encoded
(``matrix_to_doc``) and rendered (``_grid``) once per document, through a
table local to the call.
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
    encoded = {}  # terms -> JSON form; keyed by the canonical tuple, hashed in C
    entries = []
    for (r, c), poly in mat.entries.items():
        form = encoded.get(poly.terms())
        if form is None:
            form = encoded[poly.terms()] = poly.to_json()
        entries.append([index[r], index[c], form])
    entries.sort()
    return {
        "schema": SCHEMA,
        "kind": mat.kind,
        "n": mat.n,
        "m": mat.m,
        "order": [list(p) for p in mat.order],
        "entries": entries,
    }


_OFF_DIAGONAL_RING = {"D": LaurentPoly.in_positive_ring, "E": LaurentPoly.in_negative_ring}


def matrix_from_doc(doc: dict) -> TransitionMatrix:
    """The matrix of a parsed document; SchemaMismatchError for any document
    that is not one, whatever part of it is malformed."""
    try:
        return _decode(doc)
    except SchemaMismatchError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaMismatchError(f"malformed document: {type(exc).__name__}: {exc}") from exc


def _decode(doc: dict) -> TransitionMatrix:
    if doc.get("schema") != SCHEMA:
        raise SchemaMismatchError(f"unexpected schema {doc.get('schema')!r}")
    kind, n, m = doc["kind"], doc["n"], doc["m"]
    if type(n) is not int or type(m) is not int:
        raise SchemaMismatchError(f"n and m must be integers: {n!r}, {m!r}")
    order = tuple(tuple(p) for p in doc["order"])
    # 1.0 == True == 1: only the ints that matrix_to_doc writes are read
    if order != revlex_order(m) or any(type(x) is not int for p in order for x in p):
        raise SchemaMismatchError("order is not the revlex partition list")
    core = {p: c for c, members in blocks(n, m).items() for p in members}
    in_ring = _OFF_DIAGONAL_RING.get(kind, bool)  # A and C: any nonzero entry
    decoded = {}  # form (min, *c) -> (value, whether it is in_ring)
    entries = {}
    diagonal = 0
    last = (0, -1)  # strictly increasing from here keeps every row index >= 0
    for ri, ci, poly in doc["entries"]:
        key = (ri, ci)
        # a form is looked up only past from_json's type checks: True == 1
        # and (0, *"12") == (0, "1", "2"), so an equal form need not be valid
        form = None
        if type(poly) is dict and type(poly.get("min")) is int and type(poly.get("c")) is list:
            form = (poly["min"], *poly["c"])
        try:
            value, fits = decoded[form]
        except (KeyError, TypeError):  # a new form, or one that is not hashable
            try:
                value = LaurentPoly.from_json(poly)
            except (ValueError, KeyError) as exc:
                raise SchemaMismatchError(f"entry {list(key)} is not a polynomial: {exc}") from exc
            value, fits = decoded[form] = value, in_ring(value)
        if type(ri) is not int or type(ci) is not int or key <= last or ci < 0 or not value:
            raise SchemaMismatchError(f"entry {list(key)} is zero or out of order")
        last = key
        row, col = order[ri], order[ci]
        if ri == ci:
            diagonal += value == ONE  # counts the unit diagonal entries
        elif core[row] != core[col] or not fits:
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


# Raised whenever a change of algorithm may change a document, so that an
# entry an earlier algorithm stored is never found, and never served; the
# documents themselves carry no version.  Entries named without one are from
# version 1.
ALGORITHM_VERSION = 2


def cache_path(directory: str, kind: str, n: int, m: int) -> str:
    return os.path.join(directory, f"{kind}_n{n}_m{m}.v{ALGORITHM_VERSION}.json")


def cache_store(directory: str, mat: TransitionMatrix, payload: str | None = None) -> str:
    """Write the matrix document atomically (temp file + rename) and return
    its path.  payload is matrix_to_json(mat) when the caller has it already."""
    os.makedirs(directory, exist_ok=True)
    path = cache_path(directory, mat.kind, mat.n, mat.m)
    if payload is None:
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
    """Load a cached matrix.  Raises CacheMissError when there is no entry,
    SchemaMismatchError when the entry cannot be decoded or does not match
    its key, and ValueError when the entry cannot be opened or read."""
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
    except OSError as exc:
        raise ValueError(f"cache entry {path} is unusable: {exc.strerror}") from None
    except (ValueError, LookupError, TypeError, RecursionError) as exc:
        raise SchemaMismatchError(f"cache entry {path} cannot be decoded: {exc}") from exc


# -- text renderings -----------------------------------------------------------


def _grid(mat: TransitionMatrix, block: Partition | None, text):
    """The partitions shown (the whole order, or the n-core block `block`)
    and their cells: text(entry) where mat has an entry, "0" elsewhere;
    text runs once per distinct entry shown."""
    parts = mat.order if block is None else blocks(mat.n, mat.m)[tuple(block)]
    index = {p: i for i, p in enumerate(parts)}
    cells = [["0"] * len(parts) for _ in parts]
    texts = {}  # terms -> text, as in matrix_to_doc
    for (r, c), poly in mat.entries.items():
        if r in index and c in index:
            cell = texts.get(poly.terms())
            if cell is None:
                cell = texts[poly.terms()] = text(poly)
            cells[index[r]][index[c]] = cell
    return parts, cells


def render_pretty(mat: TransitionMatrix, block: Partition | None = None) -> str:
    parts, cells = _grid(mat, block, LaurentPoly.pretty)
    labels = [partition_label(p) for p in parts]
    width = [max(map(len, column)) for column in zip(*cells)]
    lw = max((len(s) for s in labels), default=1)
    lines = []
    for label, row in zip(labels, cells):
        body = " ".join(map(str.rjust, row, width))
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
