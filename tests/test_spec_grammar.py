"""Property tests for the spec grammars ``gen:``, ``traffic:`` and ``churn:``.

Round trip: every ``.spec`` (and every ``override_generator_spec`` result)
parses back to an equal object, for arbitrary finite values inside each
constructor's domain — floats are written with ``repr``, so no digit is lost.
Fuzz: a prefix followed by arbitrary text either parses or raises
``ValueError``; through the CLI a malformed spec exits 2 with one line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.scenarios import (
    TYPE_POOLS,
    generate_scenario,
    override_generator_spec,
    parse_generator_spec,
)
from repro.network.bandwidth import TRACE_KINDS
from repro.runtime.faults import CHURN_KINDS, ChurnSpec, parse_churn_spec, resolve_churn
from repro.serving.traffic import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
    parse_traffic_spec,
)
from repro.utils.specs import render_value

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

seeds = st.integers(0, 2**64)
finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
ordered_pair = st.lists(non_negative, min_size=2, max_size=2).map(sorted)


class TestRoundTrip:
    @PROPERTY
    @given(
        process=st.one_of(
            st.builds(PoissonArrivals, positive, seeds),
            st.builds(
                lambda pair, dwells, seed: MMPPArrivals(*pair, *dwells, seed),
                st.lists(non_negative, min_size=2, max_size=2, unique=True).map(sorted),
                st.tuples(positive, positive),
                seeds,
            ),
            st.builds(
                lambda pair, period, seed: DiurnalArrivals(*pair, period, seed),
                ordered_pair.filter(lambda pair: pair[1] > 0),
                positive,
                seeds,
            ),
            st.builds(
                lambda times: TraceArrivals(tuple(sorted(times))),
                st.lists(non_negative, max_size=6),
            ),
        )
    )
    def test_traffic(self, process):
        assert parse_traffic_spec(process.spec) == process

    @PROPERTY
    @given(
        spec=st.one_of(
            st.builds(
                lambda events: ChurnSpec(events=tuple(events)),
                st.lists(
                    st.tuples(st.sampled_from(CHURN_KINDS), st.integers(-4, 2**40), finite),
                    min_size=1,
                    max_size=5,
                ),
            ),
            st.builds(
                ChurnSpec,
                crashes=st.integers(0, 50),
                leaves=st.integers(0, 50),
                joins=st.integers(0, 50),
                seed=seeds,
                start_ms=st.floats(0.0, 1e300),
                window_ms=st.floats(0.0, 1e300, exclude_min=True),
            ),
        )
    )
    def test_churn_spec(self, spec):
        assert parse_churn_spec(spec.spec) == spec

    @PROPERTY
    @given(
        num_devices=st.integers(1, 8),
        counts=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        seed=seeds,
        start_ms=st.floats(0.0, 1e12),
        window_ms=st.floats(0.0, 1e12, exclude_min=True),
    )
    def test_resolved_fault_trace(self, num_devices, counts, seed, start_ms, window_ms):
        crashes, leaves, joins = counts
        spec = ChurnSpec(
            crashes=crashes, leaves=leaves, joins=joins,
            seed=seed, start_ms=start_ms, window_ms=window_ms,
        )
        trace = spec.resolve(num_devices)
        assert resolve_churn(trace.spec, num_devices) == trace

    @PROPERTY
    @given(
        num_devices=st.integers(1, 64),
        seed=seeds,
        bandwidth=positive | ordered_pair.filter(lambda pair: pair[0] > 0).map(tuple),
        types=st.sampled_from([*TYPE_POOLS, "nano", "nano+xavier"]),
        trace=st.sampled_from(TRACE_KINDS),
    )
    def test_override_generator_spec(self, num_devices, seed, bandwidth, types, trace):
        bw = "-".join(map(render_value, bandwidth)) if isinstance(bandwidth, tuple) else bandwidth
        spec = override_generator_spec(
            "gen:n=1", n=num_devices, seed=seed, bw=bw, types=types, trace=trace
        )
        expected = generate_scenario(num_devices, seed, bandwidth, types, trace)
        assert parse_generator_spec(spec) == expected

    def test_long_numbers_survive(self):
        """Regression: ``:g`` kept six significant digits."""
        process = PoissonArrivals(rate_rps=1.2345678)
        assert process.spec == "traffic:poisson,rate=1.2345678,seed=0"
        trace = resolve_churn("churn:events=crash:1@1234567.5", 4)
        assert trace.spec == "churn:events=crash:1@1234567.5"
        assert resolve_churn(trace.spec, 4) == trace


PARSERS = {
    "gen:": parse_generator_spec,
    "traffic:": parse_traffic_spec,
    "churn:": parse_churn_spec,
}

# Fragments of all three grammars, so fuzzed text reaches the value readers
# and not only the shape checks.  Few tokens keep any fleet size small.
TOKENS = [
    "n", "seed", "bw", "types", "trace", "kind", "rate", "low", "high", "dwell_low",
    "period", "times", "events", "crashes", "start_ms", "window_ms",
    "poisson", "bursty", "diurnal", "mixed", "nano", "dynamic", "crash", "join",
    "=", ",", ";", ":", "@", "-", "+", " ", "0", "1", "2", "1.5", "1e-05", "inf", "nan", "x",
]
fuzz_text = st.text(max_size=30) | st.lists(st.sampled_from(TOKENS), max_size=6).map("".join)


class TestBadInput:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(prefix=st.sampled_from(sorted(PARSERS)), body=fuzz_text)
    def test_parses_or_raises_value_error(self, prefix, body):
        try:
            PARSERS[prefix](prefix + body)
        except ValueError:
            pass

    @pytest.mark.parametrize(
        "parse, spec, fragment",
        [
            (parse_churn_spec, "churn:events=;", "at least one"),
            (parse_traffic_spec, "traffic:trace,times=;", "requires times"),
        ],
    )
    def test_empty_lists_rejected(self, parse, spec, fragment):
        """Regression: a list of only separators parsed as no churn / no arrivals."""
        with pytest.raises(ValueError, match=fragment):
            parse(spec)

    @pytest.mark.parametrize(
        "spec, option",
        [("gen:n=4,seed=x", "seed"), ("gen:n=4,bw=abc", "bw"), ("gen:n=4,seed=-1", "seed")],
    )
    def test_generator_errors_name_the_option(self, spec, option):
        """Regression: these failed with int()'s or numpy's message, naming no option."""
        with pytest.raises(ValueError, match=f"generator option {option}"):
            parse_generator_spec(spec)

    def test_empty_trace_replay_round_trips(self):
        """Regression: `traffic:trace,times=` (the empty replay's spec) was rejected."""
        assert TraceArrivals(()).spec == "traffic:trace,times="
        assert parse_traffic_spec(TraceArrivals(()).spec) == TraceArrivals(())

    @pytest.mark.parametrize(
        "offsets", [(0.5, float("nan"), 0.2), (float("nan"),), (0.0, float("inf"))]
    )
    def test_trace_offsets_must_be_finite(self, offsets):
        """Regression: a NaN passed `t < 0` and the order check after it."""
        with pytest.raises(ValueError, match="must all be finite"):
            TraceArrivals(offsets)

    def test_churn_window_end_must_be_finite(self):
        """Regression: the window end overflowed inside numpy at resolve time."""
        with pytest.raises(ValueError, match="must be finite"):
            parse_churn_spec("churn:crashes=1,start_ms=1e308,window_ms=1e308")

    @pytest.mark.parametrize(
        "flag, spec, code",
        [
            ("--scenario", "gen:n=3,seed=2,bw=1e-05-300", 0),
            ("--scenario", "gen:n=4,seed=x", 2),
            ("--scenario", "gen:n=4,bw=abc", 2),
            ("--scenario", "gen:n=4,seed=-1", 2),
            ("--scenario", "gen:n=2,,types= nano ,", 0),
            ("--traffic", "traffic: bursty ,low=0,high=5.5", 0),
            ("--traffic", "traffic:poisson,rate=1e400", 2),
            ("--traffic", "traffic:kind=trace,times=0.5;;0.25", 2),
            ("--churn", "churn:events=crash:1@250.125", 0),
            ("--churn", "churn:events=crash:1@", 2),
            ("--churn", "churn:crashes=1,start_ms=1e308,window_ms=1e308", 2),
            ("--churn", "churn:joins=1,,seed=@", 2),
        ],
    )
    def test_cli_exits_0_or_2_without_traceback(self, flag, spec, code, capsys):
        # A --scenario under test comes last and replaces the default fleet.
        argv = ["serve", "--scenario", "gen:n=2,seed=1", "--tenant", "offload",
                "--model", "tiny_cnn", "--duration", "1", flag, spec]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1, err
