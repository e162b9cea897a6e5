import json
import threading

import pytest

from fockcanon import matrixio
from fockcanon.canonical import canonical_upper
from fockcanon.cli import main, parse_partition, parse_vector
from fockcanon.fock import FockVector
from fockcanon.laurent import LaurentPoly


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


@pytest.mark.parametrize("block", ["21", "11", "3", "abc"])
def test_matrix_impossible_block_exits_2_before_computing(tmp_path, capsys, block):
    # for n=2, m=4: (2,1) is a 2-core but 4 - 3 is odd; (1,1) and (3) are not
    # 2-cores; "abc" is not a partition
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "D", "-n", "2", "-m", "4", "--block", block,
              "--cache-dir", str(cache)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
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
    ],
    ids=["repeated-partition", "fractional-min", "numeric-coefficient", "bare-part",
         "mixed-entries", "numeric-poly", "null-poly"],
)
def test_apply_bad_json_document_exits_2(capsys, doc, named):
    with pytest.raises(SystemExit) as exc:
        main(["apply", "bar", "-n", "2", "--vector", json.dumps(doc)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def test_apply_malformed_vector_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["apply", "f", "--i", "0", "-n", "2", "--vector", "[1,3]"])
    assert exc.value.code == 2


def test_apply_missing_operator_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["apply", "f", "-n", "2", "--vector", "1"])
    assert exc.value.code == 2


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "tables", "-n", "2", "--max-m", "4")
    assert code == 0
    assert "[PASS] tables" in out
    code, out = run_cli(capsys, "verify", "--suite", "domino", "-n", "3", "--max-m", "4")
    assert code == 1  # the domino theorem is n=2 only: reported as failure
    for suite in ("tables", "domino"):  # no degree up to 1 has a check
        code, out = run_cli(capsys, "verify", "--suite", suite, "-n", "2", "--max-m", "1")
        assert code == 1
        assert f"[FAIL] {suite}: suite total (0/0 checks)" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, first = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "4",
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    stored = (tmp_path / "cache" / "D_n2_m4.json").read_text()
    assert stored == first
    # second call is served from the cache, byte-identical
    code, second = run_cli(
        capsys, "matrix", "--kind", "D", "-n", "2", "-m", "4",
        "--format", "json", "--cache-dir", cache,
    )
    assert second == first


def test_cache_env_var_override(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("FOCK_CANON_CACHE", str(cache))
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(
        capsys, "matrix", "--kind", "A", "-n", "2", "-m", "2", "--format", "pretty",
    )
    assert code == 0
    assert (cache / "A_n2_m2.json").exists()


def test_cache_load_rejects_corrupted_schema(tmp_path):
    mat = canonical_upper(2, 3)
    matrixio.cache_store(str(tmp_path), mat)
    path = matrixio.cache_path(str(tmp_path), "D", 2, 3)
    doc = json.loads(open(path).read())
    doc["schema"] = "fock-canon/matrix/v0"
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(matrixio.SchemaMismatchError):
        matrixio.cache_load(str(tmp_path), "D", 2, 3)


def _edit_entries(text, edit):
    doc = json.loads(text)
    doc["entries"] = edit(doc["entries"])
    return json.dumps(doc)


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
        (4, lambda text: _edit_entries(text, lambda e: e + [[0, 1, {"min": 0, "c": []}]])),
        (4, lambda text: _edit_entries(text, lambda e: e + [[1, 0, {"min": 2, "c": ["5"]}]])),
        (4, lambda text: _edit_entries(text, lambda e: [[-1, 0, {"min": 0, "c": ["1"]}]] + e)),
        # d[(3,1),(4)] = q read as q^-1
        (4, lambda text: _edit_entries(text, _set_entry([1, 0], {"min": -1, "c": ["1"]}))),
        (4, lambda text: _edit_entries(text, _set_entry([0, 0], {"min": 0, "c": ["2"]}))),
        # (3,2) and (4,1) have the 2-cores (1) and (2,1)
        (5, lambda text: _edit_entries(
            text, lambda e: sorted(e + [[2, 1, {"min": 1, "c": ["1"]}]], key=lambda x: x[:2])
        )),
    ],
    ids=["truncated", "not-a-document", "not-utf8", "zero-poly", "repeated-pair",
         "negative-index", "ring", "diagonal", "cross-block"],
)
def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys, m, damage):
    cache = str(tmp_path / "cache")
    argv = ("matrix", "--kind", "D", "-n", "2", "-m", str(m), "--format", "json",
            "--cache-dir", cache)
    code, first = run_cli(capsys, *argv)
    path = tmp_path / "cache" / f"D_n2_m{m}.json"
    path.write_text(damage(first), errors="surrogateescape")
    code, again = run_cli(capsys, *argv)
    assert (code, again) == (0, first)
    assert path.read_text() == first


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unusable_cache_dir_exits_2_before_computing(tmp_path, capsys, monkeypatch, via, below):
    taken = tmp_path / "taken"
    taken.write_text("")
    cache = str(taken / "x" if below else taken)
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
