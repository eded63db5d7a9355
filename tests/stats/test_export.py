"""Tests for the JSON export of a run: ``SimResult.to_dict``/``to_json``."""

import json

from repro.config import SimConfig
from repro.htm.ops import Tx, Write
from repro.simulator import SimResult, Simulator


def small_result(**sim_kwargs):
    def thread():
        def body():
            yield Write(0x100, 5)
        yield Tx(body)

    return Simulator(
        SimConfig(n_cores=2), scheme="suv", **sim_kwargs
    ).run([thread])


def test_result_roundtrips_through_json():
    blob = json.loads(small_result().to_json())
    assert blob["commits"] == 1
    assert blob["breakdown"]["Trans"] > 0
    assert blob["scheme"] == "suv"


def test_stats_are_floats():
    d = small_result().to_dict()
    assert all(isinstance(v, float) for v in d["scheme_stats"].values())


def test_simresult_json_roundtrip():
    res = small_result()
    again = SimResult.from_json(res.to_json())
    assert again.total_cycles == res.total_cycles
    assert again.commits == res.commits and again.aborts == res.aborts
    assert again.breakdown.as_dict() == res.breakdown.as_dict()
    assert again.scheme_stats == {k: float(v)
                                  for k, v in res.scheme_stats.items()}
    assert again.memory == res.memory
    assert again.per_core == res.per_core
    # serialization is canonical: a round-trip is a fixed point
    assert again.to_json() == SimResult.from_json(again.to_json()).to_json()


def test_phase_breakdown_exported():
    d = small_result(trace=True).to_dict()
    iso = d["phase_breakdown"]["isolation"]
    assert iso["windows"] == 1 and iso["committed"] == 1
    assert d["phase_breakdown"]["events"]["recorded"] > 0
    # the export is pure JSON
    assert json.loads(json.dumps(d))["phase_breakdown"] == d["phase_breakdown"]


def test_phase_breakdown_roundtrips_with_result():
    res = small_result(trace=True)
    again = SimResult.from_json(res.to_json())
    assert again.phase_breakdown == res.phase_breakdown
    assert again.phase_breakdown["latency"]["commit"]["count"] == 1


def test_legacy_result_json_defaults_to_empty_phase_breakdown():
    res = small_result()
    blob = json.loads(res.to_json())
    blob.pop("phase_breakdown", None)
    again = SimResult.from_json(json.dumps(blob))
    assert again.phase_breakdown == {}
