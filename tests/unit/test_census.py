"""The run-scoped heap census (``repro.obs.census``), and negative
controls proving that the soak's memory gate and the audit leak gate,
both built on it, see a real leak."""

import gc
import threading

import pytest

from repro.audit.leakgate import run_leak_gate
from repro.chaos.scenarios import SCENARIOS
from repro.load import soak
from repro.load.soak import SOAK_PROFILES, run_soak
from repro.network.eventloop import Event
from repro.obs.census import census, heap_scope


class _Probe:
    pass


class _SubProbe(_Probe):
    pass


def test_census_counts_exact_classes():
    with heap_scope():
        kept = [_Probe(), _Probe(), _SubProbe()]
        counts, walked = census([_Probe, _SubProbe])
        assert counts == {_Probe: 2, _SubProbe: 1}
        assert walked >= len(kept) + 1
    del kept


def test_an_instance_created_before_the_scope_is_not_counted():
    before = _Probe()
    with heap_scope():
        inside = _Probe()
        assert census([_Probe]).counts[_Probe] == 1
    assert census([_Probe]).counts[_Probe] == 2
    del before, inside


def test_the_scope_walks_far_less_than_the_whole_heap():
    whole = census().walked
    with heap_scope():
        assert census().walked < whole // 10


def test_soak_census_does_not_count_a_threading_event():
    assert threading.Event.__name__ == Event.__name__ == "Event"
    with heap_scope():
        foreign = threading.Event()
        own = Event(0.0, 0, 0, print, ())
        sample = soak._census_sample()
    assert sample["objects"]["Event"] == 1
    assert sample["census_walked"] > 0 and sample["census_s"] >= 0.0
    del foreign, own


def test_a_scope_inside_a_foreign_freeze_leaves_it_frozen():
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        with heap_scope():
            assert gc.get_freeze_count() == frozen
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def _short(name, **overrides):
    params = dict(epochs=6, epoch_seconds=2.0, warmup_epochs=2)
    params.update(overrides)
    return SOAK_PROFILES[name]._replace(**params)


def test_run_soak_unfreezes_when_it_returns_and_when_it_raises(monkeypatch):
    report = run_soak(_short("steady", epochs=2), seed=7, gate=False)
    assert gc.get_freeze_count() == 0
    for sample in report["epochs"]:
        assert sample["census_walked"] > 0 and sample["census_s"] > 0.0

    seen = []

    def failing_start(self):
        seen.append(gc.get_freeze_count())
        raise RuntimeError("driver failed")

    monkeypatch.setattr(soak._SoakDriver, "start", failing_start)
    with pytest.raises(RuntimeError, match="driver failed"):
        run_soak(_short("steady"), seed=7)
    assert seen and seen[0] > 0  # the run itself was scoped
    assert gc.get_freeze_count() == 0


def test_a_soak_that_keeps_every_session_fails_the_memory_gate(monkeypatch):
    kept = []
    end_session = soak._SoakDriver._end_session

    def keeping(self, session):
        kept.append(session)
        end_session(self, session)

    monkeypatch.setattr(soak._SoakDriver, "_end_session", keeping)
    report = run_soak(_short("steady", epoch_seconds=5.0), seed=7)
    assert kept
    assert not report["ok"] and not report["memory_gate"]["ok"]
    failed = {c["metric"] for c in report["memory_gate"]["checks"]
              if not c["ok"]}
    assert "objects._Session" in failed
    assert report["safety"]["violations"] == []


def test_the_same_soak_without_the_leak_passes():
    report = run_soak(_short("steady", epoch_seconds=5.0), seed=7)
    assert report["memory_gate"]["ok"], report["memory_gate"]


def test_a_leak_gate_replay_that_keeps_each_network_reads_leaking(
        monkeypatch):
    kept = []
    scenario = SCENARIOS["click_to_dial"]

    def keeping(net):
        kept.append(net)
        return scenario(net)

    monkeypatch.setitem(SCENARIOS, "click_to_dial", keeping)
    report = run_leak_gate(app="click_to_dial", runs=3)
    assert len(kept) == report.warmup + 3
    assert not report.stable and report.growth > report.tolerance
    assert "LEAKING" in report.format()
    assert gc.get_freeze_count() == 0
