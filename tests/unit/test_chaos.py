"""Tests for the chaos harness: runner convergence, the negative
control, plan resolution, and the CLI contract."""

import io
import json

import pytest

from repro.chaos import SCENARIOS, run_app, run_suite
from repro.chaos.cli import main as chaos_main
from repro.network.faults import PLANS, plan_by_name, scaled_plan
from repro.protocol.slot import RetransmitPolicy

ACCEPTANCE_PLAN = PLANS["drop10+dup10"]


def test_suite_covers_all_six_apps():
    assert sorted(SCENARIOS) == ["click_to_dial", "collab_tv",
                                 "conference", "features", "pbx",
                                 "prepaid"]


@pytest.mark.parametrize("app", sorted(SCENARIOS))
def test_app_converges_under_acceptance_plan(app):
    """≥10% drop plus duplication: the media plane ends up exactly
    where the fault-free run ends up."""
    result = run_app(app, ACCEPTANCE_PLAN, seed=7,
                     retransmit=RetransmitPolicy())
    assert result.error is None, result.error
    assert result.mismatches == []
    assert result.converged
    # the adversary really did something
    assert result.fault_stats["dropped"] + \
        result.fault_stats["duplicated"] > 0


def test_suite_converges_across_seeds():
    for seed in (1, 3):
        results = run_suite(plan=ACCEPTANCE_PLAN, seed=seed,
                            retransmit=RetransmitPolicy())
        assert all(r.converged for r in results), \
            [(r.app, r.error or r.mismatches) for r in results
             if not r.converged]


def test_heavier_plan_still_converges():
    results = run_suite(apps=["pbx", "conference"],
                        plan=PLANS["drop20+dup20"], seed=7,
                        retransmit=RetransmitPolicy())
    assert all(r.converged for r in results)


def test_negative_control_without_retransmission():
    """Strict slots with no robust mode: loss must break the run —
    the harness is actually measuring the retransmission machinery."""
    result = run_app("features", ACCEPTANCE_PLAN, seed=7,
                     retransmit=None)
    assert not result.converged
    assert result.error is not None or result.mismatches


def test_result_serializes_to_json():
    result = run_app("click_to_dial", ACCEPTANCE_PLAN, seed=7,
                     retransmit=RetransmitPolicy())
    payload = json.loads(json.dumps(result.to_json()))
    assert payload["app"] == "click_to_dial"
    assert payload["plan"]["name"] == "drop10+dup10"
    assert payload["converged"] is True
    assert set(payload["fault_stats"]) >= {"dropped", "duplicated"}


# ----------------------------------------------------------------------
# fault-plan vocabulary
# ----------------------------------------------------------------------
def test_plan_lookup_and_scaling():
    assert plan_by_name("flaky").flaps
    with pytest.raises(KeyError):
        plan_by_name("nonesuch")
    scaled = scaled_plan(PLANS["drop10+dup10"], 0.25)
    assert scaled.drop == 0.25
    assert scaled.duplicate == PLANS["drop10+dup10"].duplicate


# ----------------------------------------------------------------------
# the CLI contract
# ----------------------------------------------------------------------
def test_cli_converged_run_exits_zero(tmp_path):
    out = io.StringIO()
    bench = tmp_path / "bench.json"
    code = chaos_main(["--app", "click_to_dial", "--seed", "7",
                       "--bench-json", str(bench)], out=out)
    assert code == 0
    assert "converged" in out.getvalue()
    payload = json.loads(bench.read_text())
    assert payload["summary"]["all_converged"] is True
    assert payload["apps"]["click_to_dial"]["converged"] is True
    # Wall times are only comparable across hosts with the ratio beside
    # them.
    assert payload["host_calibration"]["ratio"] > 0


def test_cli_json_report_on_stdout():
    out = io.StringIO()
    code = chaos_main(["--app", "features", "--json", "-"], out=out)
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload[0]["app"] == "features"
    assert payload[0]["converged"] is True


def test_cli_negative_control_exits_one():
    out = io.StringIO()
    code = chaos_main(["--app", "features", "--no-retransmit"], out=out)
    assert code == 1
    assert "DIVERGED" in out.getvalue()


def test_cli_list_plans():
    out = io.StringIO()
    assert chaos_main(["--list-plans"], out=out) == 0
    listing = out.getvalue()
    for name in PLANS:
        assert name in listing


def test_cli_rejects_unknown_plan_and_app():
    with pytest.raises(SystemExit) as exc:
        chaos_main(["--plan", "nonesuch"], out=io.StringIO())
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        chaos_main(["--app", "nonesuch"], out=io.StringIO())
    assert exc.value.code == 2


def test_cli_overrides_build_custom_plan():
    out = io.StringIO()
    code = chaos_main(["--app", "click_to_dial", "--drop", "0.15",
                       "--json", "-"], out=out)
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload[0]["plan"]["drop"] == 0.15
    assert payload[0]["plan"]["name"].endswith("+custom")
