"""The BENCH gate of benchmarks/bench.py on its smoke plan and on synthetic
pair records: no process is spawned."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    path = ROOT / "benchmarks" / "bench.py"
    spec = importlib.util.spec_from_file_location("benchmarks_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def test_smoke_plan_holds_every_run():
    runs = [head for head, _ in bench.plan(True, "CACHE")]
    for n, m in bench.SMOKE_SIZES:
        size = [h for h in runs if "kind" in h and (h["n"], h["m"]) == (n, m)]
        assert sorted(h["kind"] for h in size if "cache" not in h) == sorted([*"ADEC", "ADEC"])
        assert sorted(h["kind"] for h in size if h.get("cache") == "hit") == sorted("ADEC")
    for n, m in bench.SMOKE_ADEC_SIZES:  # past the reach: the ADEC run only
        assert [h for h in runs if (h.get("n"), h.get("m")) == (n, m)] == [
            {"kind": "ADEC", "n": n, "m": m}
        ]
    verify = [(h["suite"], h["n"], h["max_m"]) for h in runs if "suite" in h]
    assert verify == list(bench.SMOKE_VERIFY_PLAN)
    assert len(runs) == 9 * len(bench.SMOKE_SIZES) + len(bench.SMOKE_ADEC_SIZES) + len(verify)


def _sample(digest, **fields):
    return {"wall_s": 0.1, "peak_rss_mb": 20.0, "exit_code": 0, "timed_out": False,
            "stdout_bytes": 10, "stdout_sha256": digest, **fields}


def _records(damage=None):
    """Pair records of the smoke plan as a good run writes them; damage(head,
    side, samples) may alter a side's samples before they are summarized."""
    records = []
    for head, _ in bench.plan(True, "CACHE"):
        key = head.get("kind", head.get("suite")), head["n"], head.get("m", head.get("max_m"))
        sides = {}
        for side in bench.SIDES:
            samples = [_sample(repr(key)) for _ in range(3)]
            if damage:
                damage(head, side, samples)
            sides[side] = bench.summary(samples)
            if head.get("kind") == bench.ALL_KINDS and (head["n"], head["m"]) in bench.SMOKE_SIZES:
                sides[side]["equals_single_runs"] = True
        records.append(bench.pair(head, sides["base"], sides["change"]))
    return records


def test_gate_passes_a_good_pair():
    assert bench.failures(_records()) == []


def _hit_digest(head, side, samples):
    if head.get("cache") == "hit" and head["kind"] == "A" and side == "change":
        for s in samples:
            s["stdout_sha256"] = "another document"


def _no_peak(head, side, samples):
    if head.get("suite") == "involution" and side == "base":
        for s in samples:
            s["peak_rss_mb"] = None


def _exit_1(head, side, samples):
    if head.get("kind") == "D" and "cache" not in head and side == "change":
        samples[1].update(exit_code=1, stderr_tail="Traceback")


def _unequal_samples(head, side, samples):
    if head.get("kind") == "E" and "cache" not in head and side == "base":
        samples[2]["stdout_sha256"] = "another stdout"


def _unequal_sides(head, side, samples):
    if head.get("kind") == "C" and "cache" not in head and side == "change":
        for s in samples:
            s["stdout_sha256"] = "another stdout"


@pytest.mark.parametrize(
    "damage, run, reason",
    [
        (_hit_digest, "kind=A n=2 m=6 cache=hit",
         "change printed another document than its --no-cache run"),
        (_no_peak, "suite=involution n=2 max_m=4", "base recorded no peak RSS"),
        (_exit_1, "kind=D n=2 m=6", "change exited 1"),
        (_unequal_samples, "kind=E n=2 m=6", "base's samples printed different stdouts"),
        (_unequal_sides, "kind=C n=2 m=6", "the two sides printed different stdouts"),
    ],
    ids=["hit-digest", "no-peak-rss", "nonzero-exit", "unequal-samples", "unequal-sides"],
)
def test_gate_fails_and_names_the_run(monkeypatch, damage, run, reason):
    monkeypatch.setattr(bench, "PROC_STATUS", True)  # a peak RSS is due on any system
    found = bench.failures(_records(damage))
    assert (run, reason) in found


def test_gate_fails_on_an_adec_run_that_differs_from_its_single_runs():
    records = _records()
    adec = next(r for r in records if r.get("kind") == bench.ALL_KINDS and r["n"] == 3)
    adec["base"]["equals_single_runs"] = False
    assert bench.failures(records) == [
        ("kind=ADEC n=3 m=5", "base's stdout is not its single runs' stdouts")
    ]
