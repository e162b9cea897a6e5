import dataclasses
import json
import threading
from pathlib import Path

import pytest

from fockcanon import fock, matrixio, verify
from fockcanon.canonical import canonical_upper
from fockcanon.cli import main, parse_partition, parse_vector
from fockcanon.fock import FockVector
from fockcanon.laurent import LaurentPoly


# deeper than the JSON decoder can recurse
DEEP = "[" * 5000


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_partition_forms():
    assert parse_partition("311") == (3, 1, 1)
    assert parse_partition("[3,1,1]") == (3, 1, 1)
    assert parse_partition("[]") == ()
    assert parse_partition("0") == ()
    assert parse_partition("[11,2]") == (11, 2)
    with pytest.raises(ValueError):
        parse_partition("[1,3]")


def test_parse_vector_json_document():
    v = FockVector.basis((2,)) + FockVector.basis((1, 1)).scale(
        LaurentPoly.from_terms({1: 1})
    )
    assert parse_vector(json.dumps(v.to_json())) == v
    assert parse_vector("[2,1]") == FockVector.basis((2, 1))


def test_matrix_pretty(capsys):
    code, out = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "2",
        "--format", "pretty", "--no-cache",
    )
    assert code == 0
    lines = [line.strip() for line in out.strip().splitlines()]
    assert lines == ["2: 1 0", "11: q 1"]


def test_matrix_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "matrix", "--kind", "C", "-n", "2", "-m", "2",
        "--format", "json", "--no-cache",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "fock-canon/matrix/v1"
    assert doc["entries"] == [[0, 0, {"c": ["1"], "min": 0}],
                              [1, 0, {"c": ["-1"], "min": 1}],
                              [1, 1, {"c": ["1"], "min": 0}]]
    # byte-identical re-serialization
    assert matrixio.matrix_to_json(matrixio.matrix_from_json(out)) == out


def test_matrix_csv(capsys):
    code, out = run_cli(
        capsys, "matrix", "--kind", "A", "-n", "2", "-m", "2",
        "--format", "csv", "--no-cache",
    )
    assert code == 0
    assert out.splitlines() == [",2,11", "2,1,0", "11,q-q^-1,1"]


REFERENCE_D4_LATEX_CELLS = [
    ["4", "1", "0", "0", "0", "0"],
    ["3 1", "q", "1", "0", "0", "0"],
    ["2 2", "0", "q", "1", "0", "0"],
    ["2 1 1", "q", "q^{2}", "q", "1", "0"],
    ["1 1 1 1", "q^{2}", "0", "0", "q", "1"],
]


def test_matrix_latex_matches_table_cells(capsys):
    code, out = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "4",
        "--format", "latex", "--no-cache",
    )
    assert code == 0
    body = out.strip().splitlines()[1:-1]
    rows = [r.strip().rstrip("\\").strip() for r in "\n".join(body).split("\\\\")]
    got = [[c.strip() for c in row.split("&")] for row in rows if row.strip()]
    norm = lambda cell: "".join(cell.split())
    assert [[norm(c) for c in row] for row in got] == [
        [norm(c) for c in row] for row in REFERENCE_D4_LATEX_CELLS
    ]


def test_matrix_block_filter(capsys):
    # the 2-core (1) block of m=3 is {(3),(2,1),(1,1,1)} minus the (2,1) core
    code, out = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "3",
        "--format", "csv", "--no-cache", "--block", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == ",3,111"


@pytest.mark.parametrize(
    "block", ["21", "11", "3", "abc", DEEP], ids=["21", "11", "3", "abc", "deep"]
)
def test_matrix_impossible_block_exits_2_before_computing(tmp_path, capsys, block):
    # for n=2, m=4: (2,1) is a 2-core but 4 - 3 is odd; (1,1) and (3) are not
    # 2-cores; "abc" and DEEP are not partitions
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "D", "-n", "2", "-m", "4", "--block", block,
              "--cache-dir", str(cache)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and "Traceback" not in captured.err
    assert not cache.exists() or not any(cache.iterdir())


def test_matrix_exit_code_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "Z", "-n", "2", "-m", "2"])
    assert exc.value.code == 2


def test_apply_examples(capsys):
    code, out = run_cli(capsys, "apply", "f", "--i", "1", "-n", "2", "--vector", "1")
    assert (code, out.strip()) == (0, "|2> + q|11>")
    code, out = run_cli(capsys, "apply", "bar", "-n", "2", "--vector", "2")
    assert (code, out.strip()) == (0, "|2> + (q-q^-1)|11>")
    code, out = run_cli(capsys, "apply", "V", "--k", "1", "-n", "2", "--vector", "[]")
    assert (code, out.strip()) == (0, "|2> - q^-1|11>")
    code, out = run_cli(capsys, "apply", "S", "--alpha", "1", "-n", "2", "--vector", "0")
    assert (code, out.strip()) == (0, "|2> - q^-1|11>")
    code, out = run_cli(capsys, "apply", "B", "--k", "1", "-n", "2", "--vector", "[]")
    assert (code, out.strip()) == (0, "0")
    # (11) is bracketed, as in the matrix renderers, so it cannot read as (1,1)
    code, out = run_cli(capsys, "apply", "B", "--k", "-5", "-n", "2", "--vector", "1")
    assert code == 0 and out.startswith("|[11]> - |92> + q^-2|821> + ")
    assert out.strip().endswith(" - q^-5|11111111111>") and "|11>" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "bar", "-n", "1", "--vector", "21"],
        ["apply", "bar", "-n", "0", "--vector", "21"],
        ["apply", "f", "--i", "0", "-n", "-3", "--vector", "1"],
        ["matrix", "--kind", "D", "-n", "1", "-m", "2", "--no-cache"],
        ["verify", "--suite", "tables", "-n", "1", "--max-m", "3"],
        ["verify", "--suite", "uqsl", "-n", "x"],
    ],
)
def test_bad_modulus_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "-n" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--kind", "D", "-n", "2", "-m", "-1", "--no-cache"],
        ["verify", "--suite", "uqsl", "-n", "2", "--max-m", "-3"],
    ],
)
def test_negative_degree_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "m must be >= 0" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "op, bad",
    [
        (["bar"], [1, 3]),
        (["bar"], [0]),
        (["e", "--i", "1"], [1, 3]),
        (["bar"], [2.7]),
        (["bar"], [True]),
        (["bar"], ["2"]),
        (["bar"], [[2]]),
    ],
)
def test_apply_json_vector_with_bad_partition_exits_2(capsys, op, bad):
    doc = json.dumps([{"partition": bad, "poly": {"min": 0, "c": ["1"]}}])
    for vector in (doc, json.dumps(bad)):
        with pytest.raises(SystemExit) as exc:
            main(["apply", *op, "-n", "2", "--vector", vector])
        assert exc.value.code == 2, vector
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(tuple(bad)) in captured.err and "Traceback" not in captured.err


def _poly(min_exp, coeffs):
    return {"min": min_exp, "c": coeffs}


@pytest.mark.parametrize(
    "doc, named",
    [
        ([{"partition": [2], "poly": _poly(0, ["1"])},
          {"partition": [2], "poly": _poly(1, ["1"])}], "(2,)"),
        ([{"partition": [2], "poly": _poly(0.5, ["1"])}], "0.5"),
        ([{"partition": [2], "poly": _poly(0, [1.5])}], "1.5"),
        ([{"partition": 2, "poly": _poly(0, ["1"])}], "not 2"),
        ([{"partition": [2], "poly": _poly(0, ["1"])}, 3], "3)"),
        ([{"partition": [2], "poly": 3}], "document: 3"),
        ([{"partition": [2], "poly": None}], "document: None"),
        ([{"partition": [2], "poly": _poly(0, [" 1_0"])}], "' 1_0'"),
        ([{"partition": [2], "poly": _poly(0, ["\u0663"])}], "'\u0663'"),
        ([{"partition": [2], "poly": _poly(0, ["+1"])}], "'+1'"),
        ([{"partition": [2], "poly": _poly(0, ["01"])}], "'01'"),
        ([{"partition": [2], "poly": _poly(0, ["-0"])}], "'-0'"),
    ],
    ids=["repeated-partition", "fractional-min", "numeric-coefficient", "bare-part",
         "mixed-entries", "numeric-poly", "null-poly", "underscore-coefficient",
         "non-ascii-digit", "plus-sign", "leading-zero", "negative-zero"],
)
def test_apply_bad_json_document_exits_2(capsys, doc, named):
    with pytest.raises(SystemExit) as exc:
        main(["apply", "bar", "-n", "2", "--vector", json.dumps(doc)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def test_apply_malformed_vector_exits_2():
    for argv in (
        ["f", "--i", "0", "-n", "2", "--vector", "[1,3]"],
        ["bar", "-n", "2", "--vector", DEEP],
        ["S", "-n", "2", "--vector", "1", "--alpha", DEEP],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["apply", *argv])
        assert exc.value.code == 2


def test_apply_missing_operator_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["apply", "f", "-n", "2", "--vector", "1"])
    assert exc.value.code == 2


def test_main_calls_do_not_share_options(capsys):
    code, out = run_cli(capsys, "apply", "f", "--i", "0", "-n", "2", "--vector", "0")
    assert (code, out) == (0, "|1>\n")
    with pytest.raises(SystemExit) as exc:
        main(["apply", "f", "-n", "2", "--vector", "1"])
    assert exc.value.code == 2
    assert "needs --i" in capsys.readouterr().err


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "tables", "-n", "2", "--max-m", "4")
    assert code == 0
    assert "[PASS] tables" in out
    for suite in ("tables", "domino"):  # n=2 only: rejected before computing
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "-n", "3", "--max-m", "4"])
        assert exc.value.code == 2
        assert f"suite {suite}" in capsys.readouterr().err
    for suite in ("tables", "domino"):  # no degree up to 1 has a check
        code, out = run_cli(capsys, "verify", "--suite", suite, "-n", "2", "--max-m", "1")
        assert code == 1
        assert f"[FAIL] {suite}: suite total (0/0 checks)" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_suite_passes(capsys, n):
    code, out = run_cli(capsys, "verify", "--suite", "adjoint", "-n", str(n), "--max-m", "8")
    assert code == 0
    assert "[PASS] adjoint: <U_k x, y> = <x, V_k y>" in out


def _heights_plus_one(real):
    def strips(p, n, k):
        return [s._replace(height=s.height + 1) for s in real(p, n, k)]
    return strips


@pytest.mark.parametrize(
    "name, mutant, suite, check",
    [
        # the f_i/e_i loop ignoring sign: e_i gets q^{+N_i^l}
        ("node_sums", lambda real: lambda variants, sign, i, v, n: real(variants, 1, i, v, n),
         "uqsl", "[e_i, f_j] commutator"),
        ("s_alpha_via_characters",
         lambda real: lambda alpha, v, n: real(alpha, v, n).scale(LaurentPoly.monomial(1, 1)),
         "ribbon", "strip sum equals exponential formula"),
        # read only by u_op
        ("ribbon_strips_below", _heights_plus_one, "adjoint", "<U_k x, y> = <x, V_k y>"),
    ],
    ids=["e_i-ignores-sign", "oracle-times-q", "u_op-heights-plus-one"],
)
def test_verify_fails_on_a_broken_operator(monkeypatch, capsys, name, mutant, suite, check):
    monkeypatch.setattr(fock, name, mutant(getattr(fock, name)))
    code, out = run_cli(capsys, "verify", "--suite", suite, "-n", "2", "--max-m", "4")
    assert code == 1
    assert f"[FAIL] {suite}: {check}" in out
    assert f"[FAIL] {suite}: suite total" in out


Q = LaurentPoly.monomial(1, 1)


def _times(c):
    """The vector-valued function real, with every result scaled by c."""
    return lambda real: lambda *args: real(*args).scale(c)


def _off_diagonal(change):
    """The matrix function real, with each off-diagonal entry (key, poly)
    replaced by change(key, poly)."""
    def mutant(real):
        def broken(n, m):
            mat = real(n, m)
            entries = dict(
                change(key, v) if key[0] != key[1] else (key, v)
                for key, v in mat.entries.items()
            )
            return dataclasses.replace(mat, entries=entries)
        return broken
    return mutant


# every line of verify.py that marks a check failed, and that no other test
# reaches, runs in some case; each case breaks a name its check reads
@pytest.mark.parametrize(
    "module, name, mutant, suite, check",
    [
        (fock, "bar_basis_vector", _times(Q), "involution", "bar^2 = id"),
        (fock, "f_action", _times(Q), "involution", "bar commutes with f_i and B_-k"),
        (fock, "b_action", _times(Q), "involution", "bar commutes with f_i and B_-k"),
        (fock, "f_action", _times(LaurentPoly.monomial(2)),
         "uqsl", "classical limit of f_i is multiplicity free"),
        (fock, "b_action", _times(Q), "heisenberg", "[B_k, B_-k] = k(1-q^-2nk)/(1-q^-2k)"),
        # B_k alone scaled: [B_k, B_-k] fails too, but only the pairing tells
        # B_k from B_-k
        (fock, "b_action",
         lambda real: lambda k, v, n: real(k, v, n).scale(Q if k > 0 else 1),
         "heisenberg", "<B_k u, v> = <u, B_-k v>"),
        (verify, "ribbon_strips_above", _heights_plus_one, "ribbon", "0 <= h <= k(n-1)"),
        (verify, "ribbon_strips_above", lambda real: lambda p, n, k: list(real(p, n, k))[1:],
         "ribbon", "single ribbons match diagram enumeration"),
        (verify, "two_sign", lambda real: lambda p: 1, "ribbon", "(-1)^h is the 2-sign ratio"),
        # V_k on the vacuum scaled by q^k: V_j V_k picks up q^k, V_k V_j q^j
        (fock, "v_op",
         lambda real: lambda k, v, n: real(k, v, n).scale(
             LaurentPoly.monomial(1, k) if v == FockVector.basis(()) else 1),
         "adjoint", "V_j V_k = V_k V_j on the vacuum"),
        (verify, "canonical_upper", _off_diagonal(lambda key, v: (key, v.bar())),
         "duality", "rings: off-diag D in qZ[q], E in q^-1 Z[q^-1]"),
        (verify, "canonical_lower", _off_diagonal(lambda key, v: (key, v.bar())),
         "duality", "rings: off-diag D in qZ[q], E in q^-1 Z[q^-1]"),
        # a D broken this way would stop adjoint_matrix before the checks, so
        # the order they read is reversed instead; E fails too
        (verify, "dominance_leq", lambda real: lambda a, b: real(b, a),
         "duality", "triangularity"),
        (verify, "canonical_lower", _off_diagonal(lambda key, v: (key[::-1], v)),
         "duality", "triangularity"),
        # every partition its own n-core: D and E both fail
        (verify, "blocks",
         lambda real: lambda n, m: {p: (p,) for ps in real(n, m).values() for p in ps},
         "duality", "n-core block structure"),
        (verify, "steinberg_g_minus", _times(Q), "steinberg", "factorization matches rows"),
    ],
    ids=[
        "bar^2", "bar-f_i", "bar-B_-k", "classical-limit", "heisenberg-commutator",
        "heisenberg-pairing", "strip-heights", "single-ribbons", "two-sign",
        "v-commute", "d-ring", "e-ring", "triangularity", "e-transposed", "blocks",
        "steinberg",
    ],
)
def test_every_verify_check_can_fail(monkeypatch, capsys, module, name, mutant, suite, check):
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    code, out = run_cli(capsys, "verify", "--suite", suite, "-n", "2", "--max-m", "4")
    assert code == 1
    assert f"[FAIL] {suite}: {check}" in out


def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, first = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "4",
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    stored = Path(matrixio.cache_path(cache, "D", 2, 4)).read_text()
    assert stored == first
    # second call is served from the cache, byte-identical
    code, second = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "4",
        "--format", "json", "--cache-dir", cache,
    )
    assert second == first


def test_entry_of_an_earlier_algorithm_is_recomputed(tmp_path, capsys):
    # an entry stored under the name the cache used before it had a version,
    # with a d_{lam mu} that passes every load check but is not D's
    cache = tmp_path / "cache"
    argv = ("matrix", "--kind", "D", "-n", "2", "-m", "4", "--format", "json",
            "--cache-dir", str(cache))
    code, want = run_cli(capsys, *argv, "--no-cache")
    stale = _edit_entries(want, _set_entry([1, 0], {"min": 2, "c": ["1"]}))
    assert matrixio.matrix_from_json(stale) != matrixio.matrix_from_json(want)
    cache.mkdir()
    (cache / "D_n2_m4.json").write_text(stale)
    code, got = run_cli(capsys, *argv)
    assert (code, got) == (0, want)
    assert Path(matrixio.cache_path(str(cache), "D", 2, 4)).read_text() == want
    assert (cache / "D_n2_m4.json").read_text() == stale


@pytest.mark.parametrize("kind, n, m", [("A", 2, 4), ("D", 3, 4), ("D", 2, 5)],
                         ids=["other-kind", "other-n", "other-m"])
def test_document_under_another_key_is_recomputed(tmp_path, capsys, kind, n, m):
    # a valid D document of n=2, m=4 under the file name of another key
    cache = tmp_path / "cache"
    code, doc = run_cli(capsys, "matrix", "--kind", "D", "-n", "2", "-m", "4",
                        "--format", "json", "--no-cache")
    cache.mkdir()
    path = Path(matrixio.cache_path(str(cache), kind, n, m))
    path.write_text(doc)
    with pytest.raises(matrixio.SchemaMismatchError, match="does not match its key"):
        matrixio.cache_load(str(cache), kind, n, m)
    argv = ("matrix", "--kind", kind, "-n", str(n), "-m", str(m), "--format", "json")
    code, want = run_cli(capsys, *argv, "--no-cache")
    assert want != doc
    code, got = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert (code, got) == (0, want)
    assert path.read_text() == want


def test_cache_env_var_override(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("FOCK_CANON_CACHE", str(cache))
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(
        capsys, "matrix", "--kind", "A", "-n", "2", "-m", "2", "--format", "pretty",
    )
    assert code == 0
    assert Path(matrixio.cache_path(str(cache), "A", 2, 2)).exists()


def test_cache_load_rejects_corrupted_schema(tmp_path):
    mat = canonical_upper(2, 3)
    matrixio.cache_store(str(tmp_path), mat)
    path = matrixio.cache_path(str(tmp_path), "D", 2, 3)
    doc = json.loads(Path(path).read_text())
    doc["schema"] = "fock-canon/matrix/v0"
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(matrixio.SchemaMismatchError):
        matrixio.cache_load(str(tmp_path), "D", 2, 3)


def _edit_entries(text, edit):
    doc = json.loads(text)
    doc["entries"] = edit(doc["entries"])
    return json.dumps(doc)


def _edit_doc(text, **fields):
    doc = json.loads(text)
    doc.update(fields)
    return json.dumps(doc)


def _insert_entry(entry):
    return lambda entries: sorted(entries + [entry], key=lambda e: e[:2])


def _set_entry(index, poly):
    def edit(entries):
        return [e[:2] + [poly] if e[:2] == index else e for e in entries]
    return edit


@pytest.mark.parametrize(
    "m, damage",
    [
        (4, lambda text: text[: len(text) // 2]),
        (4, lambda text: "[]"),
        (4, lambda text: "\udcff"),
        (4, lambda text: DEEP),
        # an entry in order whose only fault is being zero, with and without a window
        (4, lambda text: _edit_entries(text, _insert_entry([0, 1, {"min": 0, "c": []}]))),
        (4, lambda text: _edit_entries(text, _insert_entry([0, 1, {"min": -1, "c": ["0", "0"]}]))),
        (4, lambda text: _edit_entries(text, lambda e: e + [[1, 0, {"min": 2, "c": ["5"]}]])),
        (4, lambda text: _edit_entries(text, lambda e: [[-1, 0, {"min": 0, "c": ["1"]}]] + e)),
        # d[(3,1),(4)] = q read as q^-1
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": -1, "c": ["1"]}))),
        (4, lambda text: _edit_entries(text, _set_entry([0, 0], {"min": 0, "c": ["2"]}))),
        # (3,2) and (4,1) have the 2-cores (1) and (2,1)
        (5, lambda text: _edit_entries(text, _insert_entry([2, 1, {"min": 1, "c": ["1"]}]))),
        # d[(3,1),(4)] = q with a coefficient string that to_json never writes
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": 1, "c": [" 1_0"]}))),
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": 1, "c": ["\u0663"]}))),
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": 1, "c": ["+1"]}))),
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": 1, "c": ["01"]}))),
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": 1, "c": ["1", "-0"]}))),
        # values that equal the ints matrix_to_doc writes: False == 0, 1.0 == True == 1
        (4, lambda text: _edit_entries(
            text, lambda e: [[False, False, p] if [r, c] == [0, 0] else [r, c, p] for r, c, p in e]
        )),
        (4, lambda text: _edit_doc(text, order=[[4], [3, True], [2, 2], [2, 1, 1], [1, 1, 1, 1]])),
        (4, lambda text: _edit_doc(text, order=[[4], [3, 1.0], [2, 2], [2, 1, 1], [1, 1, 1, 1]])),
        (4, lambda text: _edit_doc(text, n=2.0)),
        (4, lambda text: _edit_doc(text, m=4.0)),
    ],
    ids=["truncated", "not-a-document", "not-utf8", "deep", "zero-poly", "zero-window",
         "repeated-pair", "negative-index", "ring", "diagonal", "cross-block",
         "underscore-coefficient", "non-ascii-digit", "plus-sign", "leading-zero",
         "negative-zero", "bool-index", "bool-part", "float-part", "float-n", "float-m"],
)
def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys, m, damage):
    cache = str(tmp_path / "cache")
    argv = ("matrix", "--kind", "D", "-n", "2", "-m", str(m), "--format", "json",
            "--cache-dir", cache)
    code, first = run_cli(capsys, *argv)
    path = Path(matrixio.cache_path(cache, "D", 2, m))
    path.write_text(damage(first), errors="surrogateescape")
    code, again = run_cli(capsys, *argv)
    assert (code, again) == (0, first)
    assert path.read_text() == first


def test_failed_cache_store_still_prints_the_matrix(tmp_path, capsys, monkeypatch):
    argv = ["matrix", "--kind", "D", "-n", "2", "-m", "4", "--format", "json"]
    code, want = run_cli(capsys, *argv, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(matrixio.os, "replace", refuse)
    assert main(argv + ["--cache-dir", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    path = matrixio.cache_path(str(cache), "D", 2, 4)
    assert captured.err.count("\n") == 1 and path in captured.err
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("case", ["file", "below-file", "entry-is-dir"])
def test_unusable_cache_dir_exits_2_before_computing(tmp_path, capsys, monkeypatch, via, case):
    taken = tmp_path / "taken"
    if case == "entry-is-dir":
        Path(matrixio.cache_path(str(taken), "A", 2, 3)).mkdir(parents=True)
    else:
        taken.write_text("")
    cache = str(taken / "x" if case == "below-file" else taken)
    argv = ["matrix", "--kind", "A", "-n", "2", "-m", "3"]
    if via == "flag":
        argv += ["--cache-dir", cache]
    else:
        monkeypatch.setenv("FOCK_CANON_CACHE", cache)
    monkeypatch.setattr(
        "fockcanon.cli.compute_matrix", lambda *a: pytest.fail("computed before the check")
    )
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cache in captured.err and "Traceback" not in captured.err


def test_cache_miss(tmp_path):
    with pytest.raises(matrixio.CacheMissError):
        matrixio.cache_load(str(tmp_path), "E", 2, 5)


def test_concurrent_store_single_winner(tmp_path):
    mat = canonical_upper(2, 5)
    errors = []

    def store():
        try:
            matrixio.cache_store(str(tmp_path), mat)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    loaded = matrixio.cache_load(str(tmp_path), "D", 2, 5)
    assert loaded == mat
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
