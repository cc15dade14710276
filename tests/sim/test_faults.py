"""Tests for the deterministic fault layer (repro.sim.faults)."""

import pytest

from repro.sim import (
    ConstantLatency,
    FaultPlan,
    FaultyNetwork,
    LinkFaults,
    NO_FAULTS,
    Partition,
    RandomStreams,
    Recv,
    SimulationError,
    Simulator,
    Task,
)


def make_faulty(plan, seed=7, latency=None):
    sim = Simulator()
    stream = RandomStreams(seed)["faults"]
    net = FaultyNetwork(sim, latency or ConstantLatency(1.0), plan=plan, stream=stream)
    return sim, net


def drain(sim, net, name, count=None):
    box = net.register(name)
    got = []

    def receiver(env):
        while True:
            msg = yield Recv(box)
            got.append(msg.payload)

    Task(sim, name, receiver).start()
    return got


# ---------------------------------------------------------------- LinkFaults
def test_link_faults_validation():
    with pytest.raises(ValueError):
        LinkFaults(drop=1.5)
    with pytest.raises(ValueError):
        LinkFaults(duplicate=-0.1)
    with pytest.raises(ValueError):
        LinkFaults(jitter=-1.0)
    with pytest.raises(ValueError):
        LinkFaults(reorder=0.5)  # needs a positive reorder_window


def test_link_faults_null_replace_and_roundtrip():
    assert NO_FAULTS.is_null
    faults = LinkFaults(drop=0.1, reorder=0.2, reorder_window=3.0)
    assert not faults.is_null
    assert LinkFaults.from_dict(faults.to_dict()) == faults


# ---------------------------------------------------------------- Partition
def test_partition_membership_and_window():
    part = Partition(("a", "b"), ("c",), start=5.0, heal_at=10.0)
    assert not part.separates("a", "c", 4.9)
    assert part.separates("a", "c", 5.0)
    assert part.separates("c", "b", 7.0)
    assert not part.separates("a", "b", 7.0)  # same side
    assert not part.separates("a", "c", 10.0)  # healed


def test_partition_rejects_overlapping_sides():
    with pytest.raises(ValueError):
        Partition(("a", "b"), ("b", "c"), start=0.0)


def test_partition_never_heals_roundtrip():
    part = Partition(("a",), ("b",), start=1.0)
    assert part.separates("a", "b", 1e9)
    again = Partition.from_dict(part.to_dict())
    assert again.separates("a", "b", 1e9)
    assert again == part
    swapped = Partition(("b",), ("a",), start=1.0)       # the sides are unordered
    assert swapped == part and hash(swapped) == hash(part)


# ---------------------------------------------------------------- FaultPlan
def test_fault_plan_per_link_overrides_and_roundtrip():
    plan = FaultPlan(
        default=LinkFaults(drop=0.1),
        links={("a", "b"): LinkFaults(drop=0.9)},
        partitions=(Partition(("a",), ("b",), start=2.0, heal_at=4.0),),
    )
    assert plan.for_link("a", "b").drop == 0.9
    assert plan.for_link("b", "a").drop == 0.1
    assert plan.partitioned("a", "b", 3.0)
    assert not plan.partitioned("a", "b", 5.0)
    assert not plan.is_null
    again = FaultPlan.from_dict(plan.to_dict())
    assert again.for_link("a", "b").drop == 0.9
    assert again.partitioned("a", "b", 3.0)


def test_faulty_network_requires_stream_for_non_null_plan():
    sim = Simulator()
    with pytest.raises(SimulationError):
        FaultyNetwork(
            sim,
            ConstantLatency(1.0),
            plan=FaultPlan(default=LinkFaults(drop=0.5)),
            stream=None,
        )


# ---------------------------------------------------------------- behaviour
def test_drop_all_loses_every_message():
    sim, net = make_faulty(FaultPlan(default=LinkFaults(drop=1.0)))
    got = drain(sim, net, "rx")
    for i in range(5):
        net.send("tx", "rx", i)
    sim.run()
    assert got == []
    assert net.fault_stats.dropped == 5


def test_duplicate_all_delivers_two_copies():
    sim, net = make_faulty(FaultPlan(default=LinkFaults(duplicate=1.0)))
    got = drain(sim, net, "rx")
    net.send("tx", "rx", "pkt")
    sim.run()
    assert got == ["pkt", "pkt"]
    assert net.fault_stats.duplicated == 1


def test_a_duplicated_message_counts_both_copies_in_flight():
    sim, net = make_faulty(FaultPlan(default=LinkFaults(duplicate=1.0)))
    got = drain(sim, net, "rx")
    delivery = net.send("tx", "rx", "pkt")
    assert delivery.message.copies == 2
    delivery.retract()                  # cancels the first; the second lands dead
    assert delivery.message.copies == 1
    sim.run()
    assert delivery.message.copies == 0 and got == []


def test_partition_drops_cross_traffic_until_heal():
    plan = FaultPlan(
        partitions=(Partition(("tx",), ("rx",), start=0.0, heal_at=10.0),)
    )
    sim, net = make_faulty(plan)
    got = drain(sim, net, "rx")
    net.send("tx", "rx", "lost")
    sim.schedule(11.0, lambda: net.send("tx", "rx", "healed"))
    sim.run()
    assert got == ["healed"]
    assert net.fault_stats.partition_dropped == 1


def test_null_plan_matches_plain_network_behaviour():
    sim, net = make_faulty(FaultPlan())
    got = drain(sim, net, "rx")
    for i in range(3):
        net.send("tx", "rx", i)
    sim.run()
    assert got == [0, 1, 2]
    stats = net.fault_stats
    assert (stats.dropped, stats.duplicated, stats.reordered) == (0, 0, 0)


def test_fault_sampling_is_deterministic_per_seed():
    def run(seed):
        plan = FaultPlan(
            default=LinkFaults(drop=0.3, duplicate=0.2, jitter=2.0)
        )
        sim, net = make_faulty(plan, seed=seed)
        got = drain(sim, net, "rx")
        for i in range(20):
            net.send("tx", "rx", i)
        sim.run()
        return got, net.fault_stats.as_dict()

    first = run(21)
    second = run(21)
    different = run(22)
    assert first == second
    assert first != different  # sanity: faults actually vary with the seed


def test_reorder_draws_extra_delay_within_window():
    plan = FaultPlan(default=LinkFaults(reorder=1.0, reorder_window=50.0))
    sim, net = make_faulty(plan)
    box = net.register("rx")
    arrivals = []

    def receiver(env):
        for _ in range(2):
            msg = yield Recv(box)
            arrivals.append((env.now, msg.payload))

    Task(sim, "rx", receiver).start()
    net.send("tx", "rx", "a")
    net.send("tx", "rx", "b")
    sim.run()
    assert net.fault_stats.reordered == 2
    assert all(1.0 <= t <= 51.0 for t, _ in arrivals)
