"""Hypothesis over the full runtime: random decisions, delays, latencies.

The strongest end-to-end property in the suite: for randomized verdicts,
verdict timings and network latencies, the committed
outputs must equal the decision-derived reference and every invariant
must hold.  This complements the seeded explorer with adversarial,
shrinkable inputs.
"""

from hypothesis import given, settings, strategies as st

from repro.verify import chain_scenario, check_run, two_aid_scenario

_delay = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
_latency = st.floats(min_value=0.0, max_value=6.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=5),
    decide=st.booleans(),
    verify_delay=_delay,
    latency=_latency,
)
def test_chain_conforms_for_all_parameters(depth, decide, verify_delay, latency):
    scenario = chain_scenario(depth=depth, decide=decide, verify_delay=verify_delay)
    outcome = check_run(scenario, seed=0, latency=latency)
    assert outcome.ok, outcome.violations


@settings(max_examples=80, deadline=None)
@given(
    decide_x=st.booleans(),
    decide_y=st.booleans(),
    dx=_delay,
    dy=_delay,
    latency=_latency,
)
def test_two_aids_conform_for_all_verdict_timings(decide_x, decide_y, dx, dy, latency):
    scenario = two_aid_scenario(decide_x, decide_y, dx, dy)
    outcome = check_run(scenario, seed=0, latency=latency)
    assert outcome.ok, outcome.violations
