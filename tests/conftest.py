"""Shared fixtures for the test suite.

All planning-related fixtures use deliberately small models, clusters and
episode counts so the whole suite runs in a few minutes; the paper-scale
settings are exercised by the benchmark harness instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import settings

from repro.core.cost import random_split_decisions
from repro.core.ddpg import DDPGConfig
from repro.core.osds import OSDSConfig
from repro.core.replay import Transition
from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.execution import ModelExecutor
from repro.obs.trace import TraceEvent
from repro.runtime.evaluator import PlanEvaluator
from repro.utils.rng import as_rng, spawn_rng

# A global hypothesis profile keeping property tests quick and deadline-free
# (the NumPy conv reference can be slow on the first JIT-less call).
settings.register_profile("repro", max_examples=25, deadline=None)
settings.load_profile("repro")


# --------------------------------------------------------------------------- #
# Models
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tiny_model():
    """A 4-spatial-layer CNN for numerical tests."""
    return model_zoo.tiny_cnn(32)


@pytest.fixture(scope="session")
def small_model():
    """The reduced VGG used for planner tests (8 conv + 4 pool layers)."""
    return model_zoo.small_vgg(64)


@pytest.fixture(scope="session")
def vgg16_model():
    """Full VGG-16 layer configuration (used config-only, never executed)."""
    return model_zoo.vgg16()


@pytest.fixture(scope="session")
def scalar_mean_score():
    """Scalar reference of ``PartitionCostModel.mean_score``: the per-sample loop.

    Draws one decision per volume per sample with
    :func:`random_split_decisions`, scores each sample with ``sample_cost``
    and sums the scores sequentially — the order the array path must match
    float for float.
    """

    def mean_score(cost_model, boundaries, alpha):
        rng = as_rng(cost_model.seed)
        volumes = cost_model.model.partition(list(boundaries))
        total = 0.0
        for _ in range(cost_model.num_random_splits):
            decisions = [
                random_split_decisions(cost_model.num_devices, v.output_height, 1, rng)[0]
                for v in volumes
            ]
            total += cost_model.sample_cost(boundaries, decisions).score(alpha)
        return total / cost_model.num_random_splits

    return mean_score


# --------------------------------------------------------------------------- #
# DDPG reference: the allocating update the in-place one must match
# --------------------------------------------------------------------------- #
class _ReferenceMLP:
    """Per-layer weight and bias arrays, allocating forward and backward."""

    def __init__(self, layer_sizes, output_activation=None, seed=0):
        rng = as_rng(seed)
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.output_activation = output_activation
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(
                rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(np.float32)
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float32))
        self.weights[-1] = rng.uniform(
            -3e-3, 3e-3, size=self.weights[-1].shape
        ).astype(np.float32)
        self._cache: Optional[List[np.ndarray]] = None

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def copy_from(self, other: "_ReferenceMLP") -> None:
        for i in range(self.num_layers):
            self.weights[i] = other.weights[i].astype(np.float32).copy()
            self.biases[i] = other.biases[i].astype(np.float32).copy()

    def soft_update_from(self, other: "_ReferenceMLP", tau: float) -> None:
        for i in range(self.num_layers):
            self.weights[i] = (tau * other.weights[i] + (1.0 - tau) * self.weights[i]).astype(
                np.float32
            )
            self.biases[i] = (tau * other.biases[i] + (1.0 - tau) * self.biases[i]).astype(
                np.float32
            )

    def forward(self, x, cache=False):
        x = np.atleast_2d(np.asarray(x, dtype=np.float32))
        activations = [x]
        h = x
        for i in range(self.num_layers):
            z = h @ self.weights[i] + self.biases[i]
            if i < self.num_layers - 1:
                h = np.maximum(z, 0.0)
            elif self.output_activation == "tanh":
                h = np.tanh(z)
            else:
                h = z
            activations.append(h)
        if cache:
            self._cache = activations
        return h

    def backward(self, grad_output):
        activations = self._cache
        grad = np.atleast_2d(np.asarray(grad_output, dtype=np.float32))
        weight_grads = [np.zeros_like(w) for w in self.weights]
        bias_grads = [np.zeros_like(b) for b in self.biases]
        for i in range(self.num_layers - 1, -1, -1):
            out_i = activations[i + 1]
            in_i = activations[i]
            if i == self.num_layers - 1:
                if self.output_activation == "tanh":
                    grad = grad * (1.0 - out_i * out_i)
            else:
                grad = grad * (out_i > 0.0).astype(out_i.dtype)
            weight_grads[i] = in_i.T @ grad
            bias_grads[i] = grad.sum(axis=0)
            grad = grad @ self.weights[i].T
        param_grads: List[np.ndarray] = []
        for wg, bg in zip(weight_grads, bias_grads):
            param_grads.extend((wg, bg))
        return param_grads, grad


class _ReferenceAdam:
    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: List[np.ndarray] = []
        self._v: List[np.ndarray] = []
        self._t = 0

    def step(self, params, grads) -> None:
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        lr_t = self.learning_rate * np.sqrt(1 - self.beta2**self._t) / (1 - self.beta1**self._t)
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            p -= lr_t * m / (np.sqrt(v) + self.epsilon)


class _ReferenceReplay:
    """A list of :class:`Transition` objects, stacked at every sample."""

    def __init__(self, capacity, seed):
        self.capacity = int(capacity)
        self._rng = as_rng(seed)
        self._storage: List[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(self._storage)

    def add(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size):
        batch_size = min(batch_size, len(self._storage))
        indices = self._rng.integers(0, len(self._storage), size=batch_size)
        batch = [self._storage[i] for i in indices]
        states = np.stack([t.state for t in batch]).astype(np.float32)
        actions = np.stack([t.action for t in batch]).astype(np.float32)
        rewards = np.array([[t.reward] for t in batch], dtype=np.float32)
        next_states = np.stack([t.next_state for t in batch]).astype(np.float32)
        dones = np.array([[1.0 if t.done else 0.0] for t in batch], dtype=np.float32)
        return states, actions, rewards, next_states, dones


class _ReferenceDDPG:
    """The DDPG agent with the allocating update, built from the same seed
    the way :class:`~repro.core.ddpg.DDPGAgent` draws it."""

    def __init__(self, state_dim, action_dim, config, seed):
        self.state_dim = int(state_dim)
        self.config = config
        rng = as_rng(seed)
        net_rngs = spawn_rng(rng, 4)
        cfg = config
        actor_sizes = [state_dim, *cfg.actor_hidden, action_dim]
        critic_sizes = [state_dim + action_dim, *cfg.critic_hidden, 1]
        self.actor = _ReferenceMLP(actor_sizes, "tanh", seed=net_rngs[0])
        self.critic = _ReferenceMLP(critic_sizes, seed=net_rngs[1])
        self.target_actor = _ReferenceMLP(actor_sizes, "tanh", seed=net_rngs[2])
        self.target_critic = _ReferenceMLP(critic_sizes, seed=net_rngs[3])
        self.target_actor.copy_from(self.actor)
        self.target_critic.copy_from(self.critic)
        self.actor_optimizer = _ReferenceAdam(cfg.actor_lr)
        self.critic_optimizer = _ReferenceAdam(cfg.critic_lr)
        self.buffer = _ReferenceReplay(cfg.buffer_capacity, seed=rng.integers(2**31 - 1))
        #: Every minibatch :meth:`update` sampled, in order.
        self.batches: List[Tuple[np.ndarray, ...]] = []

    def remember(self, state, action, reward, next_state, done) -> None:
        self.buffer.add(
            Transition(
                state=np.asarray(state, dtype=np.float32),
                action=np.asarray(action, dtype=np.float32),
                reward=float(reward),
                next_state=np.asarray(next_state, dtype=np.float32),
                done=bool(done),
            )
        )

    def update(self):
        cfg = self.config
        if len(self.buffer) < cfg.warmup_transitions:
            return None
        states, actions, rewards, next_states, dones = self.buffer.sample(cfg.batch_size)
        self.batches.append((states, actions, rewards, next_states, dones))
        batch = states.shape[0]

        next_actions = self.target_actor.forward(next_states)
        target_q = self.target_critic.forward(
            np.concatenate([next_states, next_actions], axis=1)
        )
        y = rewards + cfg.gamma * (1.0 - dones) * target_q
        critic_in = np.concatenate([states, actions], axis=1)
        q = self.critic.forward(critic_in, cache=True)
        td_error = q - y
        critic_loss = float(np.mean(td_error**2))
        grad_q = (2.0 / batch) * td_error
        critic_grads, _ = self.critic.backward(grad_q)
        self.critic_optimizer.step(self.critic.parameters(), critic_grads)

        actor_actions = self.actor.forward(states, cache=True)
        critic_in2 = np.concatenate([states, actor_actions], axis=1)
        q_actor = self.critic.forward(critic_in2, cache=True)
        actor_objective = float(np.mean(q_actor))
        _, grad_input = self.critic.backward(np.full_like(q_actor, 1.0 / batch))
        grad_action = grad_input[:, self.state_dim :]
        actor_grads, _ = self.actor.backward(-grad_action)
        self.actor_optimizer.step(self.actor.parameters(), actor_grads)

        self.target_actor.soft_update_from(self.actor, cfg.tau)
        self.target_critic.soft_update_from(self.critic, cfg.tau)
        return critic_loss, actor_objective


@pytest.fixture(scope="session")
def reference_ddpg_update():
    """Reference of the in-place ``DDPGAgent.update``: the allocating one.

    Returns a factory ``(state_dim, action_dim, config, seed) -> agent`` for
    an agent with per-layer parameter arrays, a list-of-arrays Adam and a
    list-of-:class:`Transition` replay buffer that stacks every sample.  Its
    ``update`` records each sampled minibatch in ``batches``.  Fed the same
    transitions, it must produce the new agent's parameters, Adam moments,
    losses and samples float for float.
    """
    return _ReferenceDDPG


class _ReferenceTrace:
    """The tuple path the column store replaced, kept as a test oracle.

    ``derive`` fans a committed report out into one :class:`TraceEvent` per
    lifecycle row; ``lines``/``to_chrome`` sort the events with ``sorted()``
    and export them one by one; ``analyze`` is the per-event dispatch loop
    that bucketed a canonical stream before tiling.
    """

    @staticmethod
    def derive(report) -> List[TraceEvent]:
        from itertools import repeat

        events: List[TraceEvent] = []
        make = TraceEvent._make
        for tenant in report.tenants:
            track = f"tenant:{tenant.name}"
            arrive_ms = (tenant.arrival_s * 1000.0).tolist()
            start_ms = (tenant.start_s * 1000.0).tolist()
            queue_ms = (tenant.start_s * 1000.0 - tenant.arrival_s * 1000.0).tolist()
            complete_ms = (tenant.completion_s * 1000.0).tolist()
            lat = tenant.latency_ms.tolist()
            resp = tenant.response_ms.tolist()
            miss = tenant.deadline_missed.tolist()
            empty = repeat(())
            events.extend(map(make, zip(arrive_ms, repeat(track), repeat("request"),
                                        repeat("arrive"), repeat(0.0), empty)))
            events.extend(map(make, zip(arrive_ms, repeat(track), repeat("request"),
                                        repeat("queue"), queue_ms, empty)))
            events.extend(map(make, zip(start_ms, repeat(track), repeat("request"),
                                        repeat("serve"), lat,
                                        [(("latency_ms", v),) for v in lat])))
            events.extend(map(make, zip(complete_ms, repeat(track), repeat("request"),
                                        repeat("complete"), repeat(0.0),
                                        [(("deadline_missed", m), ("response_ms", r))
                                         for m, r in zip(miss, resp)])))
            for kind, name, times in (
                ("admission", "reject", tenant.rejected_times_s),
                ("admission", "deny", tenant.denied_times_s),
                ("fault", "shed", tenant.shed_times_s),
                ("fault", "abandon", tenant.abandoned_times_s),
                ("control", "replan", tenant.replan_times_s),
            ):
                events.extend(TraceEvent(float(t) * 1000.0, track, kind, name) for t in times)
        return events

    @staticmethod
    def lines(events) -> List[str]:
        return [event.to_line() for event in sorted(events)]

    @staticmethod
    def to_chrome(events) -> dict:
        pids = {"tenant:": 1, "lane:": 2}
        layout, counters = {}, {}
        for track in sorted({event.track for event in events}):
            pid = next((p for prefix, p in pids.items() if track.startswith(prefix)), 3)
            counters[pid] = counters.get(pid, 0) + 1
            layout[track] = (pid, counters[pid])
        names = {1: "tenants", 2: "device lanes", 3: "fleet & control plane"}
        records = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": names[pid]}}
            for pid in sorted({pid for pid, _ in layout.values()})
        ]
        records += [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": track}}
            for track, (pid, tid) in layout.items()
        ]
        for event in sorted(events):
            pid, tid = layout[event.track]
            record = {
                "name": event.name, "cat": event.kind, "ts": event.ts_ms * 1000.0,
                "pid": pid, "tid": tid, "args": {key: value for key, value in event.args},
            }
            if event.dur_ms > 0.0:
                record["ph"] = "X"
                record["dur"] = event.dur_ms * 1000.0
            else:
                record["ph"] = "i"
                record["s"] = "t"
            records.append(record)
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    @staticmethod
    def analyze(events):
        """The per-event loop over a canonical stream (``analyze_events``)."""
        from bisect import bisect_right

        from repro.obs.analysis import (
            AnalysisError,
            AnalysisReport,
            LaneAttribution,
            RequestAttribution,
            Segment,
            TenantAttribution,
            _tile_request,
        )

        tenants = {}

        def entry_of(name):
            if name not in tenants:
                tenants[name] = {"serve": [], "queue": [], "dispatches": [], "final": {},
                                 "spans": [], "rollup": TenantAttribution(name)}
            return tenants[name]

        for ts_ms, track, kind, name, dur_ms, raw_args in events:
            args = dict(raw_args)
            if kind == "lane":
                entry_of(str(args.get("tenant", "")))["spans"].append((ts_ms, track, dur_ms, raw_args))
                continue
            if not track.startswith("tenant:"):
                continue
            entry = entry_of(track[len("tenant:"):])
            rollup = entry["rollup"]
            if kind == "request":
                if name == "serve":
                    entry["serve"].append((ts_ms, float(args.get("latency_ms", dur_ms))))
                elif name == "queue":
                    entry["queue"].append(dur_ms)
                elif name == "dispatch":
                    latency = float(args.get("latency_ms", 0.0))
                    truncated = bool(args.get("truncated", False))
                    entry["dispatches"].append((ts_ms, latency, truncated))
                    if truncated:
                        rollup.lost_attempt_ms += latency
                    else:
                        entry["final"][ts_ms] = (
                            float(args.get("gate_wait_ms", 0.0)), bool(args.get("contended", False))
                        )
                elif name == "complete":
                    if "response_ms" in args:
                        rollup.response_ms += float(args["response_ms"])
                    if args.get("deadline_missed"):
                        rollup.misses += 1
            elif (kind, name) in (("admission", "reject"), ("admission", "deny"),
                                  ("admission", "requeue"), ("fault", "shed"),
                                  ("fault", "abandon"), ("control", "replan")):
                field = {"reject": "rejects", "deny": "denies", "requeue": "requeues",
                         "shed": "sheds", "abandon": "abandons", "replan": "replans"}[name]
                setattr(rollup, field, getattr(rollup, field) + 1)
            elif kind == "fault" and name == "retry":
                rollup.retries += 1
                rollup.retry_backoff_ms += float(args.get("delay_ms", 0.0))
                rollup.lost_attempts += 1
            elif kind == "fault" and name == "retry_chain":
                rollup.retries += max(int(args.get("attempts", 1)) - 1, 0)
                rollup.retry_backoff_ms += float(args.get("retry_added_ms", 0.0))
                rollup.lost_attempts += int(args.get("lost_attempts", 0))

        requests, rollups, lanes, truncated_attempts = [], [], {}, 0
        for name in sorted(tenants):
            entry = tenants[name]
            rollup = entry["rollup"]
            if len(entry["queue"]) != len(entry["serve"]):
                raise AnalysisError(f"tenant {name!r}: queue and serve spans differ")
            entry["dispatches"].sort()
            releases = [release for release, _, _ in entry["dispatches"]]
            spans_by_release, wait_by_release = {}, {}
            for span_ts, span_track, span_dur, span_args in entry["spans"]:
                args = dict(span_args)
                lane = lanes.setdefault(span_track, LaneAttribution(span_track))
                wait_ms = float(args.get("wait_ms", 0.0))
                lane.busy_ms += span_dur
                lane.wait_ms += wait_ms
                lane.jobs += int(args.get("jobs", 0))
                lane.spans += 1
                rollup.lane_wait_ms += wait_ms
                if not releases:
                    continue
                release, _, truncated = entry["dispatches"][max(bisect_right(releases, span_ts) - 1, 0)]
                if truncated:
                    continue
                spans_by_release.setdefault(release, []).append(
                    (span_ts - release, span_ts - release + span_dur, span_track)
                )
                wait_by_release[release] = wait_by_release.get(release, 0.0) + wait_ms
            truncated_here = sum(1 for _, _, t in entry["dispatches"] if t)
            truncated_attempts += truncated_here
            rollup.lost_attempts += truncated_here
            for index, ((start_ms, latency_ms), queue_ms) in enumerate(zip(entry["serve"], entry["queue"])):
                final = entry["final"].get(start_ms)
                if final is None:
                    segments = [Segment("service", "", 0.0, latency_ms)]
                    contended, gate_wait, lane_wait = False, 0.0, 0.0
                else:
                    gate_wait, contended = final
                    segments = _tile_request(latency_ms, gate_wait, spans_by_release.get(start_ms, []))
                    lane_wait = wait_by_release.get(start_ms, 0.0)
                requests.append(RequestAttribution(
                    name, index, start_ms, latency_ms, queue_ms, contended, gate_wait, lane_wait, segments
                ))
                rollup.requests += 1
                rollup.contended_requests += 1 if contended else 0
                rollup.queue_ms += queue_ms
                rollup.latency_ms += latency_ms
                for seg in segments:
                    dur = seg.end_ms - seg.start_ms
                    rollup.by_label[seg.label] += dur
                    if seg.lane:
                        lanes[seg.lane].critical_ms += dur
            rollups.append(rollup)
        ranked = sorted(lanes.values(), key=lambda lane: (-lane.critical_ms, lane.lane))
        total_critical = 0.0
        for lane in ranked:
            total_critical += lane.critical_ms
        if total_critical > 0.0:
            for lane in ranked:
                lane.share = lane.critical_ms / total_critical
        return AnalysisReport(requests, rollups, ranked, truncated_attempts)


@pytest.fixture(scope="session")
def reference_trace():
    """Reference of the column trace store: the tuple path it replaced.

    ``derive(report)`` is the old per-row fan-out, ``lines``/``to_chrome``
    the old sorted-tuple views and ``analyze`` the old per-event attribution
    loop.  Fed the same live events and report, the :class:`Tracer` views
    and :func:`analyze_serving` must reproduce them byte for byte.
    """
    return _ReferenceTrace


@pytest.fixture(scope="session")
def tiny_executor(tiny_model):
    return ModelExecutor(tiny_model, seed=3)


@pytest.fixture(scope="session")
def small_executor(small_model):
    return ModelExecutor(small_model, seed=3)


# --------------------------------------------------------------------------- #
# Clusters / networks
# --------------------------------------------------------------------------- #
@pytest.fixture()
def hetero_cluster():
    """Two fast and two slow providers at a common bandwidth."""
    return make_cluster([("xavier", 200), ("xavier", 200), ("nano", 200), ("nano", 200)])


@pytest.fixture()
def mixed_cluster():
    """One provider of each type with heterogeneous bandwidths."""
    return make_cluster([("xavier", 300), ("tx2", 200), ("nano", 100), ("pi3", 50)])


@pytest.fixture()
def duo_cluster():
    """Two providers (keeps planner tests fast)."""
    return make_cluster([("xavier", 200), ("nano", 200)])


@pytest.fixture()
def constant_network(hetero_cluster):
    return NetworkModel.constant_from_devices(hetero_cluster)


@pytest.fixture()
def duo_network(duo_cluster):
    return NetworkModel.constant_from_devices(duo_cluster)


@pytest.fixture()
def evaluator(hetero_cluster, constant_network):
    return PlanEvaluator(hetero_cluster, constant_network)


@pytest.fixture()
def duo_evaluator(duo_cluster, duo_network):
    return PlanEvaluator(duo_cluster, duo_network)


# --------------------------------------------------------------------------- #
# Fast algorithm configurations
# --------------------------------------------------------------------------- #
@pytest.fixture()
def fast_ddpg_config():
    """Small networks so each update costs microseconds."""
    return DDPGConfig(actor_hidden=(32, 32), critic_hidden=(32, 32), warmup_transitions=16)


@pytest.fixture()
def fast_osds_config(fast_ddpg_config):
    return OSDSConfig(max_episodes=8, ddpg=fast_ddpg_config, seed=0)
