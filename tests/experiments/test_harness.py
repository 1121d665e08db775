"""Tests for the experiment harness (fast configuration)."""

from __future__ import annotations

import pytest

from repro.experiments.harness import ALL_METHODS, ExperimentHarness, HarnessConfig
from repro.experiments.scenarios import Scenario


@pytest.fixture()
def harness():
    return ExperimentHarness(HarnessConfig(osds_episodes=5, num_random_splits=5, seed=0))


@pytest.fixture()
def small_scenario():
    return Scenario("duo", (("xavier", 100), ("nano", 100)), "two devices")


class TestHarness:
    def test_run_baseline_method(self, harness, small_scenario):
        result = harness.run("offload", small_scenario, model_name="small_vgg")
        assert result.method == "offload"
        assert result.ips > 0
        assert result.latency_ms == pytest.approx(1000.0 / result.ips)

    def test_unknown_method_rejected(self, harness, small_scenario):
        with pytest.raises(KeyError):
            harness.run("magic", small_scenario, model_name="small_vgg")

    def test_result_caching(self, harness, small_scenario):
        a = harness.run("aofl", small_scenario, model_name="small_vgg")
        b = harness.run("aofl", small_scenario, model_name="small_vgg")
        assert a is b
        c = harness.run("aofl", small_scenario, model_name="small_vgg", use_cache=False)
        assert c is not a

    def test_compare_and_speedup(self, harness, small_scenario):
        results = harness.compare(
            small_scenario, methods=("offload", "aofl", "distredge"), model_name="small_vgg"
        )
        assert set(results) == {"offload", "aofl", "distredge"}
        speedup = harness.speedup_over_best_baseline(results)
        assert speedup > 0.5
        table = harness.ips_table(results)
        assert table["distredge"] == pytest.approx(results["distredge"].ips)

    def test_speedup_requires_distredge(self, harness, small_scenario):
        results = harness.compare(small_scenario, methods=("offload",), model_name="small_vgg")
        with pytest.raises(KeyError):
            harness.speedup_over_best_baseline(results)

    def test_streaming_mode(self, small_scenario):
        harness = ExperimentHarness(
            HarnessConfig(osds_episodes=3, num_random_splits=4, num_images=5, seed=0)
        )
        result = harness.run("offload", small_scenario, model_name="small_vgg")
        assert result.ips > 0

    def test_profiles_mode(self, small_scenario):
        harness = ExperimentHarness(
            HarnessConfig(
                osds_episodes=3,
                num_random_splits=4,
                use_profiles=True,
                profile_heights_per_layer=6,
                seed=0,
            )
        )
        result = harness.run("aofl", small_scenario, model_name="small_vgg")
        assert result.ips > 0

    def test_result_cache_distinguishes_same_named_scenarios(self, harness):
        """Cached MethodResults are keyed on the scenario itself, so a
        same-named but different fleet never returns the other's numbers."""
        a = Scenario("twin", (("nano", 100), ("nano", 100)), "two nanos")
        b = Scenario("twin", (("xavier", 300), ("xavier", 300)), "two xaviers")
        result_a = harness.run("offload", a, model_name="small_vgg")
        result_b = harness.run("offload", b, model_name="small_vgg")
        assert result_a is not result_b
        assert result_a.ips != result_b.ips

    def test_serve_scenario_one_tenant_per_method(self, harness, small_scenario):
        report = harness.serve_scenario(
            small_scenario,
            methods=("coedge", "offload"),
            model_name="small_vgg",
            traffic="traffic:poisson,rate=3,seed=1",
            deadline_ms=500.0,
            duration_s=5.0,
        )
        assert [t.name for t in report.tenants] == ["coedge", "offload"]
        assert report.mode == "batched"
        assert report.total_completed > 0
        for tenant in report.tenants:
            assert tenant.slo is not None and tenant.slo.deadline_ms == 500.0
        # The report formats as a table (used by the serve CLI).
        from repro.experiments.reporting import format_serving_table

        table = format_serving_table(report, title="serve")
        assert "coedge" in table and "TOTAL" in table and "p95_ms" in table

    def test_serve_scenario_broadcast_mismatch_rejected(self, harness, small_scenario):
        with pytest.raises(ValueError, match="broadcast"):
            harness.serve_scenario(
                small_scenario,
                methods=("coedge", "offload"),
                model_name="small_vgg",
                deadline_ms=[100.0, 200.0, 300.0],
                duration_s=1.0,
            )

    def test_osds_config_sigma_scales_with_cluster(self):
        config = HarnessConfig()
        assert config.osds_config(4).sigma_squared == pytest.approx(0.1)
        assert config.osds_config(16).sigma_squared == pytest.approx(1.0)

    def test_all_methods_constant(self):
        assert "distredge" in ALL_METHODS and "offload" in ALL_METHODS
        assert len(ALL_METHODS) == 8


class TestControlPlaneRunners:
    """The harness-side callables the capacity planner / autoscaler consume."""

    GEN = "gen:n=2,seed=3,types=nano,bw=70"

    def _policy(self):
        from repro.serving import ClusterPolicy

        return ClusterPolicy(admission="predictive", on_predicted_miss="reject")

    def _probe_kwargs(self):
        return dict(
            methods=("coedge",),
            model_name="small_vgg",
            traffic="traffic:poisson,rate=150,seed=11",
            deadline_ms=40.0,
            duration_s=2.0,
            policy=self._policy(),
            slots=4,
        )

    def test_probe_runner_resizes_fleet(self, harness):
        probe = harness.capacity_probe_runner(self.GEN, **self._probe_kwargs())
        small = probe(1)
        large = probe(3)
        assert small.fleet.compute_busy_ms.size == 1
        assert large.fleet.compute_busy_ms.size == 3
        assert small.admission == "predictive"

    def test_probe_runner_memo_warm_repeat_is_bit_identical(self, harness):
        from repro.serving import assert_reports_equal

        probe = harness.capacity_probe_runner(self.GEN, **self._probe_kwargs())
        cold = probe(2)
        warm = probe(2)  # replays the shared schedule memo
        assert_reports_equal(cold, warm)

    def test_probe_runner_requires_generator_spec(self, harness):
        with pytest.raises(ValueError, match="gen:"):
            harness.capacity_probe_runner("DB", **self._probe_kwargs())

    def test_window_runner_slices_one_arrival_stream(self, harness):
        """Windows partition the horizon's arrivals exactly once."""
        from repro.serving import ClusterPolicy

        runner = harness.autoscale_window_runner(
            self.GEN,
            window_s=1.0,
            num_windows=3,
            methods=("coedge",),
            model_name="small_vgg",
            traffic="traffic:poisson,rate=60,seed=5",
            deadline_ms=1000.0,
            policy=ClusterPolicy(),
            slots=4,
        )
        from repro.serving import resolve_traffic
        from repro.serving.traffic import PoissonArrivals

        horizon = PoissonArrivals(rate_rps=60.0, seed=5).arrival_times(3.0, 0.0)
        reports = [runner(2, w) for w in range(3)]
        assert sum(r.total_arrivals for r in reports) == len(horizon)
        # Fleet size changes between windows without touching the stream.
        resized = runner(1, 1)
        assert resized.fleet.compute_busy_ms.size == 1
        assert resized.total_arrivals == reports[1].total_arrivals

    def test_window_runner_rejects_bad_window(self, harness):
        runner = harness.autoscale_window_runner(
            self.GEN,
            window_s=1.0,
            num_windows=2,
            methods=("coedge",),
            model_name="small_vgg",
            traffic="traffic:poisson,rate=10,seed=5",
        )
        with pytest.raises(ValueError, match="window"):
            runner(2, 5)
        with pytest.raises(ValueError):
            harness.autoscale_window_runner(
                self.GEN, window_s=0.0, num_windows=2,
            )
