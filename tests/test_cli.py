"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import BASELINE_REGISTRY
from repro.cli import build_parser, main


def test_import_loads_no_process_machinery():
    """``import repro, repro.cli`` must not pull in process-pool modules."""
    code = (
        "import sys, repro, repro.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


class TestParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan", "--devices", "xavier:300", "nano:50"])
        assert args.command == "plan"
        assert args.method == "distredge"
        assert args.model == "vgg16"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--devices", "nano", "--model", "alexnet"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.scenario == "DB"

    def test_plan_scenario_flag(self):
        args = build_parser().parse_args(["plan", "--scenario", "gen:n=8,seed=3"])
        assert args.scenario == "gen:n=8,seed=3"
        assert args.devices is None

    def test_plan_devices_and_scenario_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "--devices", "nano", "--scenario", "DB"]
            )

    def test_plan_requires_a_cluster(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["plan", "--model", "small_vgg", "--scenario", "DB", "--method", "coedge"],
             "--bandwidth"),
            (["evaluate", "plan.json"], "--bandwidth"),
            (["compare", "--scenario", "DB"], "--bandwidth"),
            (["serve", "--scenario", "DB", "--tenant", "coedge"], "--bandwidth"),
            (["analyze", "--scenario", "DB"], "--bandwidth"),
            (["serve", "--scenario", "DB"], "--duration"),
            (["serve", "--scenario", "DB"], "--rate"),
            (["serve", "--scenario", "DB"], "--deadline-ms"),
            (["serve", "--scenario", "DB"], "--slots"),
            (["serve", "--scenario", "DB"], "--queue-capacity"),
            (["analyze", "--scenario", "DB"], "--duration"),
            (["analyze", "--scenario", "DB"], "--rate"),
            (["analyze", "--scenario", "DB"], "--deadline-ms"),
        ],
        ids=[
            "plan", "evaluate", "compare", "serve", "analyze",
            "serve-duration", "serve-rate", "serve-deadline-ms", "serve-slots",
            "serve-queue-capacity", "analyze-duration", "analyze-rate",
            "analyze-deadline-ms",
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "fast"])
    def test_bad_bandwidth_exits_cleanly(self, argv, flag, value, capsys):
        """Regression: bad --bandwidth values raised a ValueError traceback
        deep in scenario building (inf was accepted as an infinite network);
        bad serve/analyze durations, rates, deadlines, slot counts and queue
        capacities crashed mid-run, and a NaN deadline never missed."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    def test_bandwidth_accepts_a_positive_rate(self):
        args = build_parser().parse_args(["compare", "--bandwidth", "50.5"])
        assert args.bandwidth == 50.5


class TestCommands:
    def test_plan_baseline_and_evaluate_roundtrip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code = main([
            "plan",
            "--model", "small_vgg",
            "--devices", "xavier:200", "nano:200",
            "--method", "aofl",
            "--output", str(plan_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted latency" in out
        assert plan_path.exists()
        data = json.loads(plan_path.read_text())
        assert data["method"] == "aofl"

        code = main(["evaluate", str(plan_path), "--bandwidth", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPS" in out

    def test_plan_distredge_small_budget(self, capsys):
        code = main([
            "plan",
            "--model", "small_vgg",
            "--devices", "xavier:100", "nano:100",
            "--method", "distredge",
            "--episodes", "4",
            "--random-splits", "5",
        ])
        assert code == 0
        assert "distredge" in capsys.readouterr().out

    def test_compare_unknown_scenario(self, capsys):
        code = main(["compare", "--scenario", "ZZ", "--episodes", "2", "--random-splits", "3"])
        assert code == 2

    def test_plan_generated_scenario(self, capsys):
        code = main([
            "plan",
            "--model", "small_vgg",
            "--scenario", "gen:n=4,bw=200,types=nano",
            "--method", "aofl",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gen-4d-nano-bw200-constant-s0" in out
        assert "predicted latency" in out

    def test_plan_catalogue_scenario(self, capsys):
        code = main([
            "plan",
            "--model", "small_vgg",
            "--scenario", "DA",
            "--method", "modnn",
        ])
        assert code == 0
        assert "scenario: DA" in capsys.readouterr().out

    def test_plan_catalogue_scenario_with_bandwidth(self, capsys):
        """--bandwidth reshapes a catalogue scenario's links (so plan and
        compare can be run against the same fleet)."""
        code = main([
            "plan",
            "--model", "small_vgg",
            "--scenario", "DA",
            "--bandwidth", "300",
            "--method", "modnn",
        ])
        assert code == 0
        assert "scenario: DA-300Mbps" in capsys.readouterr().out

    def test_plan_malformed_generator_spec(self, capsys):
        code = main(["plan", "--model", "small_vgg", "--scenario", "gen:bogus=1"])
        assert code == 2
        assert "unknown generator option" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["gen:n=4,trace=bogus", "gen:n=4,bw=nan-10"])
    def test_plan_bad_generator_values_exit_cleanly(self, spec, capsys):
        """Regression: bad gen: values are rejected when the spec is parsed,
        not by a traceback once the scenario builds its traces."""
        code = main(["plan", "--model", "small_vgg", "--scenario", spec, "--method", "coedge"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_plan_unknown_scenario_message_unwrapped(self, capsys):
        code = main(["plan", "--model", "small_vgg", "--scenario", "ZZ"])
        assert code == 2
        err = capsys.readouterr().err
        # The KeyError payload is printed bare, not as its repr.
        assert err.startswith("unknown scenario 'ZZ'")

    def test_plan_and_compare_resolve_the_same_fleet(self):
        """Regression: a scenario name must mean one fleet in both commands."""
        from repro.cli import _scenario_from_args

        db = _scenario_from_args("DB", None)
        assert db.bandwidths_mbps == [200.0] * 4  # Table-I default, both commands
        reshaped = _scenario_from_args("DB", 300.0)
        assert reshaped.name == "DB-300Mbps"
        assert reshaped.bandwidths_mbps == [300.0] * 4
        # Names plan accepts are reachable from compare too (shared resolver).
        assert _scenario_from_args("homog-nano", None) is not None
        assert _scenario_from_args("NA-xavier", None) is not None

    def test_compare_bandwidth_ignored_for_generated_scenarios(self, capsys):
        code = main(["compare", "--scenario", "gen:bogus=1", "--bandwidth", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--bandwidth does not apply to gen: scenarios" in err
        assert "unknown generator option" in err


class TestEvaluateScenario:
    """`evaluate --scenario` re-evaluates saved plans on plan/compare fleets."""

    def _save_plan(self, tmp_path, scenario):
        plan_path = tmp_path / "plan.json"
        code = main([
            "plan", "--model", "small_vgg", "--scenario", scenario,
            "--method", "aofl", "--output", str(plan_path),
        ])
        assert code == 0
        return plan_path

    def test_reevaluate_on_matching_generated_fleet(self, tmp_path, capsys):
        spec = "gen:n=4,bw=200,types=nano"
        plan_path = self._save_plan(tmp_path, spec)
        capsys.readouterr()
        code = main(["evaluate", str(plan_path), "--scenario", spec])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: gen-4d-nano-bw200-constant-s0" in out
        assert "IPS" in out

    def test_bandwidth_reshapes_catalogue_scenario(self, tmp_path, capsys):
        plan_path = self._save_plan(tmp_path, "DA")
        capsys.readouterr()
        code = main(["evaluate", str(plan_path), "--scenario", "DA", "--bandwidth", "50"])
        assert code == 0
        assert "scenario: DA-50Mbps" in capsys.readouterr().out

    def test_mismatched_fleet_rejected(self, tmp_path, capsys):
        plan_path = self._save_plan(tmp_path, "gen:n=4,bw=200,types=nano")
        capsys.readouterr()
        code = main(["evaluate", str(plan_path), "--scenario", "DB"])
        assert code == 2
        assert "does not match the plan's devices" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        plan_path = self._save_plan(tmp_path, "gen:n=4,bw=200,types=nano")
        capsys.readouterr()
        code = main(["evaluate", str(plan_path), "--scenario", "ZZ"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.mode == "batched"
        assert args.duration == 30.0
        assert args.tenants is None

    def test_serve_two_tenants_batched(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--model", "small_vgg",
            "--tenant", "coedge", "--tenant", "offload",
            "--duration", "5", "--rate", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Distinct methods keep bare names (same rule as harness.serve_scenario).
        assert "coedge" in out and "offload" in out
        assert "coedge-0" not in out
        assert "TOTAL" in out
        assert "p95_ms" in out

    def test_serve_parity_mode(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--model", "small_vgg", "--tenant", "offload",
            "--duration", "5", "--mode", "parity",
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_serve_explicit_traffic_and_slo(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--model", "small_vgg",
            "--tenant", "coedge", "--tenant", "offload",
            "--traffic", "traffic:mmpp,low=1,high=20,seed=3",
            "--deadline-ms", "8", "--deadline-ms", "1000",
            "--queue-capacity", "16",
            "--duration", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO violations" in out or "miss%" in out

    def test_serve_malformed_traffic_spec(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--model", "small_vgg", "--tenant", "offload",
            "--traffic", "traffic:warp,rate=3", "--duration", "2",
        ])
        assert code == 2
        assert "unknown traffic kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--traffic", "traffic:poisson,rate=inf"),
            ("--traffic", "traffic:trace,times=nan"),
            ("--churn", "churn:crashes=1,window_ms=inf"),
            ("--churn", "churn:events=crash:1@nan"),
        ],
    )
    def test_serve_non_finite_spec_exits_cleanly(self, flag, spec, capsys):
        """Regression: non-finite traffic:/churn: floats are rejected when the
        spec is parsed, not by a traceback once the run starts."""
        code = main([
            "serve", "--scenario", "DB", "--tenant", "coedge",
            flag, spec, "--duration", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "must" in err and "finite" in err
        assert "Traceback" not in err

    def test_serve_unknown_tenant_method(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--tenant", "warpdrive", "--duration", "2",
        ])
        assert code == 2
        assert "unknown tenant method" in capsys.readouterr().err

    def test_serve_broadcast_mismatch(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--model", "small_vgg",
            "--tenant", "coedge", "--tenant", "offload", "--tenant", "modnn",
            "--deadline-ms", "5", "--deadline-ms", "6",
            "--duration", "2",
        ])
        assert code == 2
        assert "--deadline-ms" in capsys.readouterr().err

    def test_serve_tenant_model_override(self, capsys):
        code = main([
            "serve", "--scenario", "gen:n=4,bw=200,types=nano",
            "--model", "small_vgg",
            "--tenant", "offload@tiny_cnn",
            "--duration", "3",
        ])
        assert code == 0
        assert "offload" in capsys.readouterr().out


class TestServeControlPlane:
    GEN = "gen:n=2,seed=3,types=nano,bw=70"
    COMMON = [
        "serve", "--scenario", GEN, "--tenant", "coedge",
        "--model", "small_vgg",
        "--traffic", "traffic:poisson,rate=150,seed=11",
        "--deadline-ms", "40", "--duration", "2",
        "--contention", "--admission", "predictive", "--slots", "4",
    ]

    def test_control_flags_parse(self):
        args = build_parser().parse_args(self.COMMON + [
            "--on-predicted-miss", "requeue", "--window-ms", "500",
            "--plan-capacity", "--fleet-range", "1:4",
            "--target-miss-rate", "0.05",
        ])
        assert args.admission == "predictive"
        assert args.on_predicted_miss == "requeue"
        assert args.window_ms == 500.0
        assert args.plan_capacity and args.fleet_range == "1:4"
        assert args.target_miss_rate == 0.05
        assert args.slots == [4]

    def test_admission_requires_contention(self, capsys):
        code = main([
            "serve", "--scenario", self.GEN, "--admission", "predictive",
        ])
        assert code == 2
        assert "--contention" in capsys.readouterr().err

    def test_window_ms_requires_contention(self, capsys):
        code = main(["serve", "--scenario", self.GEN, "--window-ms", "500"])
        assert code == 2
        assert "--contention" in capsys.readouterr().err

    def test_plan_capacity_requires_contention(self, capsys):
        code = main([
            "serve", "--scenario", self.GEN, "--plan-capacity",
        ])
        assert code == 2
        assert "--contention" in capsys.readouterr().err

    def test_plan_capacity_requires_generator_scenario(self, capsys):
        code = main([
            "serve", "--scenario", "DB", "--contention",
            "--admission", "predictive", "--plan-capacity",
        ])
        assert code == 2
        assert "gen:" in capsys.readouterr().err

    def test_plan_capacity_and_autoscale_exclusive(self, capsys):
        code = main(self.COMMON + ["--plan-capacity", "--autoscale"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_fleet_range(self, capsys):
        code = main(self.COMMON + ["--plan-capacity", "--fleet-range", "4"])
        assert code == 2
        assert "MIN:MAX" in capsys.readouterr().err

    def test_serve_predictive_admission_run(self, capsys):
        code = main(self.COMMON + ["--window-ms", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "denied" in out

    def test_serve_predictive_parity(self, capsys):
        code = main(self.COMMON + [
            "--mode", "parity", "--on-predicted-miss", "requeue",
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_plan_capacity_run_writes_report(self, tmp_path, capsys):
        report = tmp_path / "capacity.json"
        code = main(self.COMMON + [
            "--plan-capacity", "--fleet-range", "1:3",
            "--target-miss-rate", "0.1",
            "--report-json", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum fleet" in out or "no feasible" in out
        payload = json.loads(report.read_text())
        assert payload["strategy"] == "binary"
        assert payload["num_probe_runs"] == len(payload["probes"])

    def test_autoscale_run_writes_report(self, tmp_path, capsys):
        report = tmp_path / "autoscale.json"
        code = main(self.COMMON + [
            "--autoscale", "--fleet-range", "1:3",
            "--windows", "2", "--window-s", "1",
            "--report-json", str(report),
        ])
        assert code == 0
        assert "autoscaled serving" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert len(payload["windows"]) == 2
        assert payload["device_trajectory"][0] == 1


class TestServeObservability:
    GEN = "gen:n=2,seed=3,types=nano,bw=70"
    COMMON = [
        "serve", "--scenario", GEN, "--tenant", "coedge",
        "--model", "small_vgg",
        "--traffic", "traffic:poisson,rate=150,seed=11",
        "--deadline-ms", "40", "--duration", "2",
    ]

    def test_trace_json_is_chrome_loadable(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(self.COMMON + ["--trace-json", str(trace)])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert payload["displayTimeUnit"] == "ms"
        phases = {record["ph"] for record in payload["traceEvents"]}
        assert {"M", "i"} <= phases
        names = {record["name"] for record in payload["traceEvents"]}
        assert "serve" in names and "arrive" in names

    def test_metrics_json_snapshot(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(self.COMMON + ["--metrics-json", str(metrics)])
        assert code == 0
        assert "metrics written" in capsys.readouterr().out
        payload = json.loads(metrics.read_text())
        assert payload["repro_requests_arrived_total"]["type"] == "counter"
        assert "repro_latency_ms" in payload

    def test_profile_prints_wall_clock_table(self, capsys):
        code = main(self.COMMON + ["--profile"])
        assert code == 0
        assert "excluded from parity" in capsys.readouterr().out

    def test_parity_mode_carries_the_tracer(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(self.COMMON + [
            "--mode", "parity", "--trace-json", str(trace),
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_report_json_carries_provenance(self, tmp_path):
        report = tmp_path / "report.json"
        code = main(self.COMMON + ["--report-json", str(report)])
        assert code == 0
        provenance = json.loads(report.read_text())["provenance"]
        assert provenance["scenario"] == self.GEN
        assert provenance["argv"][0] == "serve"
        assert provenance["repro_version"]

    def test_figure_rejects_observability_flags(self, capsys):
        code = main(self.COMMON + ["--figure", "--profile"])
        assert code == 2
        assert "single serving run" in capsys.readouterr().err

    def test_control_plane_rejects_metrics_and_profile(self, capsys):
        code = main(self.COMMON + [
            "--contention", "--admission", "predictive",
            "--plan-capacity", "--metrics-json", "x.json",
        ])
        assert code == 2
        assert "--trace-json" in capsys.readouterr().err

    def test_plan_capacity_writes_control_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(self.COMMON + [
            "--contention", "--admission", "predictive", "--slots", "4",
            "--plan-capacity", "--fleet-range", "1:3",
            "--target-miss-rate", "0.1", "--trace-json", str(trace),
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        names = {r["name"] for r in json.loads(trace.read_text())["traceEvents"]}
        assert "capacity_probe" in names

    def test_plan_profile_flag(self, capsys):
        code = main([
            "plan", "--model", "small_vgg",
            "--devices", "nano:70", "nano:70",
            "--method", "coedge", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan.search" in out and "plan.evaluate" in out

    def test_plan_profile_splits_distredge_stages(self, capsys):
        code = main([
            "plan", "--model", "tiny_cnn",
            "--devices", "nano:70", "nano:70",
            "--method", "distredge", "--episodes", "2", "--random-splits", "3",
            "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan.lcpss" in out and "plan.osds" in out and "plan.evaluate" in out
        assert "plan.search" not in out


class TestAnalyze:
    CHURN = "churn:crashes=1,seed=2,start_ms=500,window_ms=2000"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--duration", "3", "--contention", "--churn", CHURN],
            ["--duration", "3", "--churn", CHURN, "--seed", "1"],
        ],
        ids=["contended", "uncontended"],
    )
    def test_inline_run_matches_the_served_trace(self, flags, tmp_path, capsys):
        """`analyze` run inline resolves its run exactly as `serve` does: the
        same flags give the same analysis as analysing serve's exported trace."""
        inline, trace, exported = (tmp_path / n for n in ("a.json", "t.json", "b.json"))
        assert main(["analyze", *flags, "--report-json", str(inline)]) == 0
        assert main(["serve", *flags, "--trace-json", str(trace)]) == 0
        assert main([
            "analyze", "--trace-json", str(trace), "--report-json", str(exported),
        ]) == 0
        capsys.readouterr()
        a, b = (json.loads(path.read_text()) for path in (inline, exported))
        a.pop("provenance")
        b.pop("provenance")
        assert a["requests"] > 0
        assert a == b


AUTOSCALE = ["serve", "--contention", "--autoscale", "--scenario", "gen:n=2,seed=1"]


class TestInputBoundary:
    """Every bad input exits 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--scenario", "DB", "--episodes", "0"],
            ["plan", "--scenario", "DB", "--episode-batch", "0"],
            ["plan", "--scenario", "DB", "--policy-refresh", "0"],
            ["plan", "--scenario", "DB", "--alpha", "2"],
            ["plan", "--scenario", "DB", "--alpha", "nan"],
            ["plan", "--scenario", "DB", "--random-splits", "0"],
            ["plan", "--devices", "nano:abc"],
            ["plan", "--devices", "foo:100"],
            ["plan", "--devices", "nano:inf"],
            ["plan", "--scenario", "gen:n=4,seed=x"],
            ["plan", "--scenario", "gen:n=4,bw=abc"],
            ["plan", "--scenario", "gen:n=4,seed=-1"],
            ["plan", "--scenario", "gen:n=1000000000000", "--method", "offload",
             "--model", "tiny_cnn"],
            ["compare", "--scenario", "DB", "--episodes", "0"],
            ["compare", "--scenario", "DB", "--random-splits", "0"],
            ["compare", "--scenario", "DB", "--episode-batch", "0"],
            ["evaluate", "{tmp}/missing.json"],
            ["evaluate", "{tmp}/not-json.json"],
            ["serve", "--contention", "--window-ms", "nan"],
            ["analyze", "--contention", "--window-ms", "nan"],
            [*AUTOSCALE, "--windows", "0"],
            [*AUTOSCALE, "--window-s", "nan"],
            ["serve", "--churn", "churn:crashes=1", "--retry-backoff-ms", "nan"],
            ["serve", "--alerts", "--alert-fast-s", "nan"],
            ["analyze", "--top", "0"],
            ["analyze", "--top", "-1"],
            ["analyze", "--trace-json", "{tmp}/non-object-event.json"],
        ],
        ids=[
            "plan-episodes", "plan-episode-batch", "plan-policy-refresh",
            "plan-alpha", "plan-alpha-nan", "plan-random-splits",
            "plan-device-bandwidth", "plan-device-type", "plan-device-bandwidth-inf",
            "plan-gen-seed-text", "plan-gen-bw-text", "plan-gen-seed-negative",
            "plan-gen-n-too-large",
            "compare-episodes", "compare-random-splits", "compare-episode-batch",
            "evaluate-missing-file", "evaluate-not-json",
            "serve-window-ms-nan", "analyze-window-ms-nan",
            "autoscale-windows", "autoscale-window-s-nan",
            "serve-retry-backoff-nan", "serve-alert-window-nan",
            "analyze-top-0", "analyze-top-negative", "analyze-trace-non-object-event",
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        (tmp_path / "not-json.json").write_text('{"a":\n')
        (tmp_path / "non-object-event.json").write_text('{"traceEvents": [3]}')
        try:
            code = main([arg.format(tmp=tmp_path) for arg in argv])
        except SystemExit as exc:  # rejected by argparse itself
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        # argparse prints its usage block (the first line and indented
        # continuations) above the one-line message.
        lines = [
            line for line in err.splitlines()
            if line and not line.startswith(("usage:", " "))
        ]
        assert len(lines) == 1, err

    def test_run_errors_are_not_input_errors(self, monkeypatch):
        """Only resolution is inside the boundary: a ValueError raised by the
        planner or the simulator once the run has started propagates."""
        from repro.serving import ServingSimulator

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(BASELINE_REGISTRY["coedge"], "plan", boom)
        with pytest.raises(ValueError, match="boom"):
            main(["plan", "--devices", "nano", "--model", "tiny_cnn", "--method", "coedge"])
        monkeypatch.undo()
        monkeypatch.setattr(ServingSimulator, "run", boom)
        serving = ["--tenant", "offload", "--model", "tiny_cnn", "--duration", "1"]
        for command in ("serve", "analyze"):
            with pytest.raises(ValueError, match="boom"):
                main([command, *serving])
