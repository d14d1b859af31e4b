"""Tests of the benchmark's own code: tiny runs of every workload, the
wrappers' restore, and the benchmark's independent boundary arithmetic."""

import json
import math
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
run._import_library()

import checks  # noqa: E402  (needs seqdml on the path)
import tracer  # noqa: E402


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace, one_setup, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def _targets():
    return [(owner, attr) for owner, attr, *_ in tracer.LAYER_TABLE + tracer.COUNTED_TABLE]


def test_wrappers_are_restored():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in _targets()]
    peek = tracer.engine.Stream.peek
    with pytest.raises(RuntimeError):
        with tracer.Patches() as patches:
            tracer.PeekProbe().install(patches)
            tracer.Tracer().install(patches)
            assert all(getattr(o, a) is not f for o, a, f in originals)
            raise RuntimeError("restore must survive an exception")
    assert all(getattr(o, a) is f for o, a, f in originals)
    assert tracer.engine.Stream.peek is peek


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert t.calls == {"outer": 1, "inner": 3}
    start, end = t.spans[0][3], t.spans[0][4]
    assert t.self_s["outer"] + t.self_s["inner"] == pytest.approx(end - start, rel=1e-9)
    assert [s[1] for s in t.spans] == [None, 0, 0, 0]


def test_mixture_radius_matches_library():
    from seqdml.boundary import MixtureParams, scalar_radius, tune_rho

    for alpha, m, sigma_sq, n in [(0.05, 500, 4.2, 500), (0.05, 500, 4.2, 50_000),
                                  (0.1, 20, 0.3, 7)]:
        rho = checks.tuned_rho(alpha, m, sigma_sq)
        assert rho == pytest.approx(tune_rho(alpha, m, sigma_sq), rel=1e-14)
        expected = scalar_radius(n, MixtureParams(rho, alpha, 1), math.sqrt(sigma_sq))
        assert checks.mixture_radius(n, rho, alpha, math.sqrt(sigma_sq)) == pytest.approx(
            expected, rel=1e-14)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 39)[1] is None
    assert run.tail(list(range(40)))[1] == 75.0
    assert run.tail(list(range(99)))[1] == 75.0
    assert run.tail(list(range(1000)))[1] == 90.0
