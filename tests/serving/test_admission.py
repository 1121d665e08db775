"""Predictive deny-at-admission: parity, accounting and requeue semantics.

The control plane's admission gate runs *inside* the contended serving
loop, so its acceptance bar is the same bit-parity contract as the loop
itself: with ``ClusterPolicy(admission="predictive")`` the reference and
batched loops must produce identical reports — denials, requeues, window
series and all — under every dispatch discipline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BASELINE_REGISTRY
from repro.devices.specs import make_cluster
from repro.experiments.scenarios import resolve_scenario
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs.trace import Tracer
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.contention import ContentionAwareEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.faults import RetryPolicy
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    ParityMismatch,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
    TraceArrivals,
    assert_reports_equal,
    run_with_parity,
)
from repro.serving.tenants import TenantRuntime


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


@pytest.fixture(scope="module")
def fleet():
    devices = make_cluster([("nano", 70), ("nano", 70)])
    network = NetworkModel.constant_from_devices(devices)
    return devices, network


def _saturating_tenants(model, devices):
    """Three tenants offering well past the two-nano fleet's capacity.

    A single nano serves small_vgg in ~4.4 ms (~227 req/s); 350 req/s of
    aggregate offered load with 20/40 ms deadlines forces the predictive
    gate to intervene, while the SLO-free tenant must never be touched.
    """
    return [
        TenantSpec(
            "tight",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(200.0, seed=11),
            slo=SLO(deadline_ms=20.0),
            weight=2.0,
        ),
        TenantSpec(
            "loose",
            DistributionPlan.single_device(model, devices, 1),
            traffic=PoissonArrivals(100.0, seed=12),
            slo=SLO(deadline_ms=40.0),
            weight=1.0,
        ),
        TenantSpec(
            "noslo",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(50.0, seed=13),
        ),
    ]


def _run(fleet, model, policy, mode="batched", duration=2.0):
    devices, network = fleet
    evaluator = BatchPlanEvaluator(devices, network)
    return ServingSimulator(evaluator).run(
        _saturating_tenants(model, devices),
        duration_s=duration,
        mode=mode,
        policy=policy,
    )


# --------------------------------------------------------------------- #
# parity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("discipline", ["fifo", "deadline", "wfq"])
@pytest.mark.parametrize("action", ["reject", "requeue"])
@pytest.mark.parametrize("walk", ["object", "array"])
def test_predictive_admission_parity(fleet, model, discipline, action, walk):
    """Reference and batched loops agree bit-for-bit with admission on.

    ``walk`` picks the reference side's contended walk: ``object`` is
    :class:`PlanEvaluator`'s ``process_volume``/``finalize`` walk (so the
    check also crosses walks), ``array`` the same compiled-plan walk the
    batched side uses (so only the memo and the dispatch grouping differ).
    """
    devices, network = fleet
    policy = ClusterPolicy(
        discipline=discipline, admission="predictive", on_predicted_miss=action
    )
    reference = {"object": PlanEvaluator, "array": BatchPlanEvaluator}[walk]
    report = run_with_parity(
        BatchPlanEvaluator(devices, network),
        reference(devices, network),
        _saturating_tenants(model, devices),
        duration_s=2.0,
        policy=policy,
    )
    assert report.admission == "predictive"
    assert report.on_predicted_miss == action
    assert report.total_denied > 0


def test_admission_metadata_mismatch_raises(fleet, model):
    """assert_reports_equal treats admission config as part of identity."""
    base = _run(fleet, model, ClusterPolicy(admission="predictive"))
    other = _run(fleet, model, ClusterPolicy(admission="none"))
    with pytest.raises(ParityMismatch):
        assert_reports_equal(base, other)


# --------------------------------------------------------------------- #
# the idle bound
# --------------------------------------------------------------------- #

BOUND_DEADLINE_MS = 30.0


@pytest.fixture(scope="module")
def dynamic_fleet():
    return resolve_scenario("gen:n=4,seed=3,trace=dynamic").build(seed=3)


def _bound_tenants(model, devices, network):
    """Distributed plans at a deadline that some requests miss even idle."""
    return [
        TenantSpec(
            method,
            BASELINE_REGISTRY[method]().plan(model, devices, network),
            traffic=PoissonArrivals(rate, seed=20 + i),
            slo=SLO(deadline_ms=BOUND_DEADLINE_MS),
            weight=1.0 + i,
        )
        for i, (method, rate) in enumerate([("coedge", 60.0), ("modnn", 40.0), ("offload", 60.0)])
    ]


def _count_idle_misses(monkeypatch, fleet, run):
    """Run ``run()``; count its predicted misses, and the contended ones the idle fleet misses too.

    Every predicted miss ends in ``deny_pending`` or ``defer_pending``, and
    the (possibly degraded) plan and outcome it was decided on are the last
    ``predict`` saw.  The idle response uses ``TenantRuntime.commit``'s
    arithmetic.
    """
    predict = ContentionAwareEvaluator.predict
    deny = TenantRuntime.deny_pending
    defer = TenantRuntime.defer_pending
    last = []
    misses = []

    def spy_predict(self, plan, *args, **kwargs):
        outcome = predict(self, plan, *args, **kwargs)
        last[:] = [plan, outcome]
        return outcome

    def spy_deny(self):
        misses.append((self._pending, *last))
        return deny(self)

    def spy_defer(self, new_start_s):
        misses.append((self._pending, *last))
        return defer(self, new_start_s)

    with monkeypatch.context() as patch:
        patch.setattr(ContentionAwareEvaluator, "predict", spy_predict)
        patch.setattr(TenantRuntime, "deny_pending", spy_deny)
        patch.setattr(TenantRuntime, "defer_pending", spy_defer)
        report = run()
    idle = BatchPlanEvaluator(*fleet)
    hopeless = 0
    for dispatch, plan, outcome in misses:
        idle_ms = idle.evaluate(plan, dispatch.start_s).end_to_end_ms
        response_ms = ((dispatch.start_s + idle_ms / 1000.0) - dispatch.arrival_s) * 1000.0
        hopeless += outcome.contended and response_ms > BOUND_DEADLINE_MS
    return report, len(misses), hopeless


@pytest.mark.parametrize("churn", [None, "churn:crashes=8,window_ms=900"])
@pytest.mark.parametrize("action", ["reject", "requeue"])
def test_idle_bound_skips_exactly_the_hopeless_walks(monkeypatch, dynamic_fleet, action, churn):
    """The batched loop decides idle-fleet misses without a contended walk.

    Contention only delays a request, so an idle miss is a contended miss:
    the batched report must equal the reference's (which walks every
    request), and its walks plus memo hits must fall short of the
    reference's predictions by exactly the contended misses the idle fleet
    misses too (on an idle fleet the walk is the idle walk, so no bound is
    taken; a hopeless request is never memoized, and in these runs none
    replays a schedule memoized for another request).
    """
    model = model_zoo.small_vgg(64)
    devices, network = dynamic_fleet
    tenants = _bound_tenants(model, devices, network)
    policy = ClusterPolicy(discipline="wfq", admission="predictive", on_predicted_miss=action)
    run_args = dict(duration_s=1.0, policy=policy, faults=churn)
    if churn is not None:
        run_args["retry"] = RetryPolicy(max_attempts=3, backoff_ms=10.0, jitter_ms=2.0, seed=1)

    traced = Tracer()
    run_with_parity(
        BatchPlanEvaluator(devices, network),
        PlanEvaluator(devices, network),
        tenants,
        tracer=traced,
        **run_args,
    )
    reference_trace = Tracer()
    reference, misses, hopeless = _count_idle_misses(
        monkeypatch,
        dynamic_fleet,
        lambda: ServingSimulator(PlanEvaluator(devices, network)).run(
            tenants, mode="reference", tracer=reference_trace, **run_args
        ),
    )
    assert traced.lines() == reference_trace.lines()

    batched = ServingSimulator(BatchPlanEvaluator(devices, network)).run(tenants, **run_args)
    assert_reports_equal(batched, reference)
    assert reference.total_denied > 0 and 0 < hopeless < misses
    # The reference walks every prediction; the batched loop predicts
    # (walk or memo hit) every request but the hopeless contended ones.
    assert batched.epochs + batched.cache_hits == reference.epochs - hopeless
    assert batched.epochs < reference.epochs
    if churn is not None:
        assert sum(t.num_retried for t in reference.tenants) > 0
    if action == "requeue":
        assert any(" admission requeue " in line for line in reference_trace.lines())


# --------------------------------------------------------------------- #
# accounting
# --------------------------------------------------------------------- #


def test_denials_eliminate_misses_and_are_counted(fleet, model):
    baseline = _run(fleet, model, ClusterPolicy())
    gated = _run(fleet, model, ClusterPolicy(admission="predictive"))
    # The ungated run misses massively; the gate converts those misses
    # into denials and every admitted request meets its deadline (the
    # prediction is the exact schedule, so it cannot be wrong).
    assert baseline.deadline_miss_rate > 0.3
    assert gated.deadline_miss_rate == 0.0
    assert gated.total_denied > 0
    by_name = {t.name: t for t in gated.tenants}
    assert by_name["noslo"].num_denied == 0  # no SLO, never intercepted
    assert sum(t.num_denied for t in gated.tenants) == gated.total_denied
    for tenant in gated.tenants:
        assert len(tenant.denied_times_s) == tenant.num_denied
        assert list(tenant.denied_times_s) == sorted(tenant.denied_times_s)


def test_denials_survive_to_dict(fleet, model):
    gated = _run(fleet, model, ClusterPolicy(admission="predictive"))
    payload = gated.to_dict()
    assert payload["admission"] == "predictive"
    assert payload["on_predicted_miss"] == "reject"
    assert payload["total_denied"] == gated.total_denied
    per_tenant = {t["name"]: t for t in payload["tenants"]}
    for tenant in gated.tenants:
        assert per_tenant[tenant.name]["num_denied"] == tenant.num_denied


def test_requeue_defers_or_denies(fleet, model):
    rejected = _run(
        fleet, model, ClusterPolicy(admission="predictive", on_predicted_miss="reject")
    )
    requeued = _run(
        fleet, model, ClusterPolicy(admission="predictive", on_predicted_miss="requeue")
    )
    # Requeueing gives intercepted requests a second chance at the fleet's
    # next lane-free event; a deadline unmeetable even then is still denied
    # (the run must terminate), so saturation keeps both counts positive.
    # The two schedules diverge after the first interception, so the counts
    # are not pointwise comparable — but the gate's guarantee (no admitted
    # request misses) holds for both.
    assert rejected.total_denied > 0
    assert requeued.total_denied > 0
    assert rejected.deadline_miss_rate == 0.0
    assert requeued.deadline_miss_rate == 0.0


def test_open_loop_denial_preserves_arrival_count(fleet, model):
    """Denied open-loop arrivals still appear in num_arrivals."""
    gated = _run(fleet, model, ClusterPolicy(admission="predictive"))
    for tenant in gated.tenants:
        assert (
            tenant.num_completed + tenant.num_rejected + tenant.num_denied
            <= tenant.num_arrivals
        )
        assert tenant.num_arrivals > 0


# --------------------------------------------------------------------- #
# windowed fleet-load series
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("window_ms", [250.0, 1000.0])
def test_window_series_sums_to_run_totals(fleet, model, window_ms):
    policy = ClusterPolicy(admission="predictive", window_ms=window_ms)
    report = _run(fleet, model, policy)
    series = report.fleet.series
    assert series is not None
    assert series.window_ms == window_ms
    for role in ("compute", "send", "recv"):
        busy = getattr(series, f"{role}_busy_ms")
        wait = getattr(series, f"{role}_wait_ms")
        np.testing.assert_allclose(
            busy.sum(axis=0), getattr(report.fleet, f"{role}_busy_ms"), rtol=1e-9
        )
        np.testing.assert_allclose(
            wait.sum(axis=0), getattr(report.fleet, f"{role}_wait_ms"), rtol=1e-9
        )
    assert int(series.released.sum()) == report.fleet.requests


def test_window_series_is_part_of_parity(fleet, model):
    """run_with_parity holds with the series attached, and a width change trips it."""
    devices, network = fleet
    policy = ClusterPolicy(admission="predictive", window_ms=500.0)
    report = run_with_parity(
        BatchPlanEvaluator(devices, network),
        PlanEvaluator(devices, network),
        _saturating_tenants(model, devices),
        duration_s=2.0,
        policy=policy,
    )
    assert report.fleet.series is not None
    other = _run(fleet, model, ClusterPolicy(admission="predictive", window_ms=250.0))
    with pytest.raises(ParityMismatch):
        assert_reports_equal(report, other)
    bare = _run(fleet, model, ClusterPolicy(admission="predictive"))
    assert bare.fleet.series is None
    with pytest.raises(ParityMismatch):
        assert_reports_equal(report, bare)


# --------------------------------------------------------------------- #
# tenant-level deny / defer primitives
# --------------------------------------------------------------------- #


def _open_loop_runtime(model, devices, offsets, **spec_kwargs):
    spec = TenantSpec(
        "t",
        DistributionPlan.single_device(model, devices, 0),
        traffic=TraceArrivals(offsets),
        **spec_kwargs,
    )
    return TenantRuntime(spec, start_s=0.0, duration_s=10.0)


def test_deny_pending_open_loop_pops_queue(fleet, model):
    devices, _ = fleet
    runtime = _open_loop_runtime(model, devices, (0.0, 0.1, 0.2))
    dispatch = runtime.prepare()
    runtime.deny_pending()
    assert runtime.denied_times == [dispatch.start_s]
    # The denied request left the queue: the next dispatch is arrival #2.
    nxt = runtime.prepare()
    assert nxt.arrival_s == pytest.approx(0.1)
    # Denial consumed no service slot — the next start is its own arrival,
    # not shifted by any service time.
    assert nxt.start_s == pytest.approx(0.1)


def test_deny_pending_closed_loop_consumes_request_budget(fleet, model):
    devices, _ = fleet
    spec = TenantSpec(
        "closed",
        DistributionPlan.single_device(model, devices, 0),
        traffic=None,
        max_requests=2,
        slo=SLO(deadline_ms=1.0),
    )
    runtime = TenantRuntime(spec, start_s=0.0, duration_s=None)
    runtime.prepare()
    runtime.deny_pending()
    runtime.prepare()
    runtime.deny_pending()
    # Both issued requests were denied; the chain terminates instead of
    # spinning on a deadline that can never be met.
    assert runtime.prepare() is None
    assert runtime.done
    report = runtime.report()
    assert report.num_denied == 2
    assert report.num_completed == 0
    assert report.num_arrivals == 2


def test_defer_pending_requires_strictly_later_start(fleet, model):
    devices, _ = fleet
    runtime = _open_loop_runtime(model, devices, (0.0,))
    dispatch = runtime.prepare()
    with pytest.raises(ValueError):
        runtime.defer_pending(dispatch.start_s)
    deferred = runtime.defer_pending(dispatch.start_s + 0.05)
    assert deferred.arrival_s == dispatch.arrival_s
    assert deferred.start_s == pytest.approx(dispatch.start_s + 0.05)
    assert deferred.plan is dispatch.plan
    # The deferred dispatch is still the pending one; committing it records
    # the response against the original arrival.
    runtime.commit(10.0)
    assert runtime.responses_ms[0] == pytest.approx(
        (deferred.start_s + 0.010 - dispatch.arrival_s) * 1000.0
    )


def test_defer_pending_admits_arrivals_up_to_new_start(fleet, model):
    devices, _ = fleet
    runtime = _open_loop_runtime(model, devices, (0.0, 0.02, 0.04), queue_capacity=2)
    runtime.prepare()
    # The pending head still occupies the queue, so capacity 2 leaves room
    # for exactly one of the two later arrivals: deferring past both admits
    # 0.02 and rejects 0.04 — exactly what prepare() at the new start would
    # have done.
    runtime.defer_pending(0.05)
    assert runtime.arrivals_seen == 3
    assert len(runtime.rejected_times) == 1


def test_deny_without_pending_raises(fleet, model):
    devices, _ = fleet
    runtime = _open_loop_runtime(model, devices, (0.0,))
    with pytest.raises(RuntimeError):
        runtime.deny_pending()
    with pytest.raises(RuntimeError):
        runtime.defer_pending(1.0)
