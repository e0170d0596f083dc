"""Unit tests for the shared resilience policy (repro.runtime.resilience)
and the fault-domain table (repro.runtime.faults)."""

import pytest

from repro.errors import AnalysisError, InjectedFault
from repro.runtime.faults import (
    FAULT_DOMAINS,
    FAULT_POINTS,
    FaultPlan,
    describe_fault_points,
    fault_domain,
)
from repro.runtime.resilience import (
    DEFAULT_WORKER_FAILURE_BUDGET,
    IO_RETRY,
    RetryPolicy,
)


class TestRetryDelays:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(retries=4, base_delay=0.1, multiplier=2.0,
                             max_delay=None, jitter=0.0)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_cap_bounds_the_schedule(self):
        policy = RetryPolicy(retries=6, base_delay=1.0, multiplier=10.0,
                             max_delay=3.0, jitter=0.0)
        assert max(policy.delays()) == 3.0

    def test_jitter_is_subtractive_and_bounded(self):
        policy = RetryPolicy(retries=8, base_delay=0.5, multiplier=2.0,
                             max_delay=4.0, jitter=0.5, seed=7)
        for attempt, delay in enumerate(policy.delays(), 1):
            ceiling = min(0.5 * 2 ** (attempt - 1), 4.0)
            # Jitter only ever *shortens* the sleep: the cap still holds.
            assert ceiling * 0.5 <= delay <= ceiling

    def test_deterministic_across_instances(self):
        a = RetryPolicy(jitter=0.4, seed=42)
        b = RetryPolicy(jitter=0.4, seed=42)
        assert list(a.delays()) == list(b.delays())
        assert a.delay(2) == b.delay(2)  # pure function of (policy, n)

    def test_different_seeds_differ(self):
        a = RetryPolicy(jitter=0.9, seed=1)
        b = RetryPolicy(jitter=0.9, seed=2)
        assert list(a.delays()) != list(b.delays())

    def test_attempt_is_one_based(self):
        with pytest.raises(AnalysisError):
            RetryPolicy().delay(0)

    def test_seeded_for_is_stable_and_spread(self):
        base = RetryPolicy(jitter=0.5)
        assert base.seeded_for("a.c") == base.seeded_for("a.c")
        assert base.seeded_for("a.c").seed != base.seeded_for("b.c").seed
        # Everything except the seed is preserved.
        derived = base.seeded_for("prog.c")
        assert (derived.retries, derived.base_delay, derived.jitter) == (
            base.retries, base.base_delay, base.jitter)


class TestRetryRun:
    def _flaky(self, failures, exc_type=OSError):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise exc_type(f"transient #{calls['n']}")
            return "ok"

        return fn, calls

    def test_retries_then_succeeds(self):
        fn, calls = self._flaky(2)
        policy = RetryPolicy(retries=3, jitter=0.0, base_delay=0.0)
        slept = []
        assert policy.run(fn, sleep=slept.append) == "ok"
        assert calls["n"] == 3 and len(slept) == 2

    def test_exhaustion_reraises_last_error(self):
        fn, calls = self._flaky(10)
        policy = RetryPolicy(retries=2, jitter=0.0, base_delay=0.0)
        with pytest.raises(OSError):
            policy.run(fn, sleep=lambda _s: None)
        assert calls["n"] == 3  # initial call + 2 retries

    def test_unlisted_exception_propagates_immediately(self):
        fn, calls = self._flaky(5, exc_type=ValueError)
        with pytest.raises(ValueError):
            RetryPolicy(retries=3).run(fn, sleep=lambda _s: None)
        assert calls["n"] == 1  # never retried: not a transient error

    def test_injected_fault_retryable_when_listed(self):
        plan = FaultPlan(point="checkpoint_write")  # once=True

        def fn():
            plan.fire("checkpoint_write", stage="test")
            return "healed"

        policy = RetryPolicy(retries=1, jitter=0.0, base_delay=0.0)
        observed = []
        result = policy.run(fn, retry_on=(OSError, InjectedFault),
                            sleep=lambda _s: None,
                            on_retry=lambda n, e: observed.append((n, type(e))))
        assert result == "healed"
        assert observed == [(1, InjectedFault)]

    def test_io_retry_defaults_are_tiny(self):
        # In-process healing must cost milliseconds: every delay under
        # the cap, and the cap itself well under a second.
        assert IO_RETRY.max_delay <= 0.5
        assert all(d <= IO_RETRY.max_delay for d in IO_RETRY.delays())


class TestFaultDomains:
    def test_domains_partition_the_points(self):
        seen = [p for points in FAULT_DOMAINS.values() for p in points]
        assert tuple(seen) == FAULT_POINTS
        assert len(set(seen)) == len(seen)

    def test_every_point_resolves_to_its_domain(self):
        for domain, points in FAULT_DOMAINS.items():
            for point in points:
                assert fault_domain(point) == domain

    def test_unknown_point_is_typed_error(self):
        with pytest.raises(AnalysisError):
            fault_domain("warp_core_breach")

    def test_plan_domain_property(self):
        assert FaultPlan(point="worker_exec").domain == "service"
        assert FaultPlan(point="stage_cache_read").domain == "io"
        assert FaultPlan().domain == "*"

    def test_describe_lists_every_point_and_domain(self):
        text = describe_fault_points()
        for domain in FAULT_DOMAINS:
            assert f"[{domain}]" in text
        for point in FAULT_POINTS:
            assert point in text
        assert f"{len(FAULT_POINTS)} points" in text

    def test_watchdog_defaults(self):
        assert DEFAULT_WORKER_FAILURE_BUDGET >= 2  # one revival guaranteed
