"""Array serving engine: bit-identity against the scalar reference loop.

The acceptance bar of the batched time-wheel: across open- and closed-loop
tenants, dynamic traces, slot pools, request caps, admission bounds,
adaptation hooks and all three contention disciplines, every per-request
number must equal the reference loop's exactly — ``run_with_parity`` is
the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.online import PeriodicReplanController
from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    MMPPArrivals,
    PoissonArrivals,
    RetryPolicy,
    TenantSpec,
    run_with_parity,
    vectorizable,
)


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


def _two_devices():
    devices = make_cluster([("xavier", 200), ("nano", 200)])
    return devices, NetworkModel.constant_from_devices(devices)


def _parity(devices, network, tenants, **kwargs):
    return run_with_parity(
        BatchPlanEvaluator(devices, network),
        PlanEvaluator(devices, network),
        tenants,
        **kwargs,
    )


class TestVectorPathParity:
    def test_open_and_closed_loop_constant_network(self, model):
        devices, network = _two_devices()
        tenants = [
            TenantSpec(
                "open",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(6.0, seed=1),
                slo=SLO(deadline_ms=40.0),
            ),
            TenantSpec(
                "closed",
                DistributionPlan.single_device(model, devices, 1),
                max_requests=40,
                gap_ms=3.0,
            ),
        ]
        report = _parity(devices, network, tenants, duration_s=15.0)
        assert report.total_completed > 0
        # Static network: the whole timeline commits from one evaluation
        # per distinct plan, so nearly every request rode a speculation.
        assert report.speculated >= report.total_completed - len(tenants)

    @pytest.mark.parametrize("kind", ["wifi", "dynamic"])
    def test_dynamic_traces(self, model, kind):
        """Continuously-varying links: per-request verification stays exact."""
        devices = make_cluster([("xavier", 100), ("nano", 100)])
        network = NetworkModel.from_devices(devices, kind=kind, seed=3)
        tenants = [
            TenantSpec(
                "a",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(8.0, seed=1),
                slo=SLO(deadline_ms=50.0),
            ),
            TenantSpec(
                "b",
                DistributionPlan.single_device(model, devices, 1),
                traffic=MMPPArrivals(0.5, 12.0, seed=2),
            ),
        ]
        report = _parity(devices, network, tenants, duration_s=25.0)
        # Interpolated traces change the signature at every instant, so
        # speculation cannot cover the whole run in one epoch as it does
        # on static networks.
        assert report.epochs > 1

    def test_step_trace_speculation_and_rollback(self, model):
        """A piecewise-constant link: windows commit, the jump rolls back.

        Within each flat segment the signature holds, so whole windows
        verify and commit; the step forces the window straddling it to
        discard its mis-speculated tail — all of it bit-exact against the
        reference loop.  The trace deliberately does not override
        ``throughput_mbps_array``, exercising the base-class scalar-loop
        fallback of the verifier too.
        """
        from repro.network.bandwidth import BandwidthTrace
        from repro.network.link import Link, TransmissionModel

        class StepTrace(BandwidthTrace):
            def __init__(self, before, after, jump_s):
                self.before, self.after, self.jump_s = before, after, jump_s
                self.nominal_mbps = float(before)

            def throughput_mbps(self, t_seconds):
                return float(self.before if t_seconds < self.jump_s else self.after)

        devices = make_cluster([("xavier", 200), ("nano", 200)])
        tm = TransmissionModel()
        network = NetworkModel(
            provider_links=[
                Link(trace=StepTrace(200.0, 60.0, 5.0), model=tm),
                Link(trace=StepTrace(200.0, 90.0, 5.0), model=tm),
            ],
        )
        assert not network.is_static
        tenants = [
            TenantSpec(
                "steady",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(25.0, seed=8),
            ),
        ]
        report = _parity(devices, network, tenants, duration_s=10.0)
        assert report.speculated > 0, "no window committed; test is vacuous"
        assert report.epochs > 1, "the step never interrupted a window"

    def test_slot_pools_open_and_closed(self, model):
        devices, network = _two_devices()
        tenants = [
            TenantSpec(
                "s3",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(20.0, seed=5),
                slots=3,
            ),
            TenantSpec(
                "c2",
                DistributionPlan.single_device(model, devices, 1),
                max_requests=30,
                slots=2,
            ),
        ]
        report = _parity(devices, network, tenants, duration_s=8.0)
        s3 = report.tenant("s3")
        # With 3 slots a request may start before the previous completion.
        overlaps = np.sum(s3.start_s[1:] < s3.completion_s[:-1])
        assert overlaps > 0, "slot pool never overlapped; test is vacuous"

    def test_request_cap_drain(self, model):
        """At max_requests the queued + remaining arrivals are rejected."""
        devices, network = _two_devices()
        tenants = [
            TenantSpec(
                "capped",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(50.0, seed=4),
                max_requests=10,
            ),
        ]
        report = _parity(devices, network, tenants, duration_s=10.0)
        capped = report.tenant("capped")
        assert capped.num_completed == 10
        assert capped.num_rejected == capped.num_arrivals - 10
        assert capped.num_rejected > 0

    def test_closed_loop_max_duration_truncation(self, model):
        devices, network = _two_devices()
        tenants = [
            TenantSpec(
                "t",
                DistributionPlan.single_device(model, devices, 0),
                max_requests=100000,
                max_duration_s=2.0,
            ),
        ]
        report = _parity(devices, network, tenants)
        t = report.tenant("t")
        assert 0 < t.num_completed < 100000


class TestSignatureSampling:
    @pytest.mark.parametrize(
        "faults", [None, "churn:crashes=3,joins=2,window_ms=15000,seed=7"]
    )
    def test_dynamic_network_samples_each_head_at_most_once(
        self, model, monkeypatch, faults
    ):
        """Regression: on a continuously varying trace every speculation
        window fails at its second row, and each head used to be sampled
        twice more — once to group it, once inside ``evaluate_plans``.  The
        failed row is the next head's signature and is passed on as
        ``rates=``, so sampling happens at most once per evaluated head
        (and here almost never) — with the floats still the reference
        loop's, churned or not."""
        import repro.runtime.batch as batch_module
        import repro.serving.engine as engine_module
        from repro.baselines import CoEdgePlanner

        devices = make_cluster([("xavier", 100), ("nano", 100)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=3)
        tenants = [
            TenantSpec(
                "single",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(8.0, seed=1),
            ),
            TenantSpec(
                "split",
                CoEdgePlanner().plan(model, devices, network),
                traffic=PoissonArrivals(40.0, seed=2),
            ),
        ]
        samples, heads = [], []
        sample = batch_module.network_state_signature
        advance = engine_module._VectorTenant.advance

        def counting_sample(net, t_seconds):
            samples.append(t_seconds)
            return sample(net, t_seconds)

        def counting_advance(vector, *args, **kwargs):
            heads.append(vector.peek_start())
            return advance(vector, *args, **kwargs)

        monkeypatch.setattr(batch_module, "network_state_signature", counting_sample)
        monkeypatch.setattr(engine_module, "network_state_signature", counting_sample)
        monkeypatch.setattr(engine_module._VectorTenant, "advance", counting_advance)
        report = _parity(
            devices,
            network,
            tenants,
            duration_s=20.0,
            faults=faults,
            retry=None if faults is None else RetryPolicy(max_attempts=3, backoff_ms=10.0),
        )
        assert len(heads) > 500 and report.total_completed > 500
        assert len(samples) <= len(heads)
        assert len(samples) < len(heads) // 10
        if faults is not None:
            assert report.faults.lost_attempts > 0, "churn never bit; test is vacuous"


class TestFallbackPathParity:
    def test_queue_capacity_falls_back(self, model):
        devices, network = _two_devices()
        spec = TenantSpec(
            "bounded",
            DistributionPlan.single_device(model, devices, 1),
            traffic=PoissonArrivals(120.0, seed=6),
            queue_capacity=2,
        )
        assert not vectorizable(spec)
        report = _parity(devices, network, [spec], duration_s=10.0)
        assert report.tenant("bounded").num_rejected > 0

    def test_adaptation_hook_falls_back(self, model):
        from repro.baselines import CoEdgePlanner

        devices = make_cluster([("nano", 70), ("nano", 70)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=2)
        planner = CoEdgePlanner()

        def controller_factory():
            controller = PeriodicReplanController(
                planner_fn=lambda t: planner.plan(model, devices, network),
                network=network,
                replan_threshold=0.05,
                replan_delay_s=1.0,
            )
            return controller.adaptation_hook

        spec = TenantSpec(
            "adaptive",
            DistributionPlan.single_device(model, devices, 0, method="initial"),
            traffic=PoissonArrivals(2.0, seed=9),
            hook_factory=controller_factory,
        )
        assert not vectorizable(spec)
        static = TenantSpec(
            "static",
            DistributionPlan.single_device(model, devices, 1),
            traffic=PoissonArrivals(2.0, seed=10),
        )
        report = _parity(devices, network, [spec, static], duration_s=30.0)
        adaptive = report.tenant("adaptive")
        assert adaptive.replan_times_s, "controller never replanned; test is vacuous"
        assert adaptive.final_method == "coedge"

    def test_mixed_fleet_fallback_and_vector(self, model):
        """A queue-capped tenant on the scalar loop beside a column tenant on
        the engine, in one batched run."""
        devices, network = _two_devices()
        tenants = [
            TenantSpec(
                "vec",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(10.0, seed=1),
            ),
            TenantSpec(
                "fall",
                DistributionPlan.single_device(model, devices, 1),
                traffic=PoissonArrivals(10.0, seed=2),
                queue_capacity=1,
            ),
        ]
        report = _parity(devices, network, tenants, duration_s=10.0)
        assert report.tenant("vec").num_completed > 0
        assert report.tenant("fall").num_completed > 0


class TestContended:
    @pytest.mark.parametrize("discipline", ["fifo", "deadline", "wfq"])
    def test_contended_parity(self, model, discipline):
        """Contended array runs keep the canonical dispatcher interleaving."""
        devices, network = _two_devices()
        tenants = [
            TenantSpec(
                "a",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(4.0, seed=1),
                slo=SLO(deadline_ms=200.0),
            ),
            TenantSpec(
                "b",
                DistributionPlan.single_device(model, devices, 1),
                traffic=PoissonArrivals(3.0, seed=2),
                weight=2.0,
            ),
        ]
        report = _parity(
            devices,
            network,
            tenants,
            duration_s=8.0,
            policy=ClusterPolicy(discipline=discipline, max_inflight=2),
        )
        assert report.contention
        assert report.fleet is not None


class TestValidation:
    def test_array_engine_accepts_a_plain_evaluator(self, model):
        """Every ``PlanEvaluator`` answers ``evaluate_plans`` (plan by plan),
        so the array engine runs on a plain one — churned or not — and stays
        bit-identical to the reference loop."""
        devices, network = _two_devices()
        plan = DistributionPlan.single_device(model, devices, 0)
        tenants = [
            TenantSpec("t", plan, traffic=PoissonArrivals(2.0, seed=1)),
            TenantSpec("u", plan, traffic=None, max_requests=1000),  # always in flight
        ]
        for faults in (None, "churn:events=crash:0@500;join:0@2500"):
            report = run_with_parity(
                PlanEvaluator(devices, network),
                PlanEvaluator(devices, network),
                tenants,
                duration_s=5.0,
                faults=faults,
            )
            assert report.mode == "batched"
            assert report.evaluator_kind == "PlanEvaluator"
            assert report.total_completed > 10
        assert report.faults.lost_attempts > 0

    def test_slots_validation(self, model):
        devices, _ = _two_devices()
        with pytest.raises(ValueError, match="slots"):
            TenantSpec(
                "bad",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(1.0, seed=0),
                slots=0,
            )
