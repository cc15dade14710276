"""Static-check and interpreter tests for mini-HOPE."""

import pytest

from repro.lang import CheckError, check_program, compile_program, parse
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency


# ---------------------------------------------------------------- checks
def test_undeclared_variable_error():
    report = check_program(parse("process P() { x = 1; }"))
    assert not report.ok
    assert "undeclared" in report.errors[0]


def test_unknown_function_error():
    report = check_program(parse("process P() { frobnicate(1); }"))
    assert any("unknown function" in e for e in report.errors)


def test_builtin_arity_error():
    report = check_program(parse("process P() { guess(); }"))
    assert any("argument" in e for e in report.errors)


def test_duplicate_process_error():
    report = check_program(parse("process P() { } process P() { }"))
    assert any("duplicate" in e for e in report.errors)


def test_double_resolution_warning():
    source = """
    process P() {
        var x = aid_init("x");
        affirm(x);
        deny(x);
    }
    """
    report = check_program(parse(source))
    assert report.ok
    assert any("already resolved" in w for w in report.warnings)


def test_branches_reset_resolution_tracking():
    source = """
    process P(flag) {
        var x = aid_init("x");
        if (flag) { affirm(x); } else { deny(x); }
    }
    """
    report = check_program(parse(source))
    assert report.ok
    assert report.warnings == []


def test_compile_raises_on_errors():
    with pytest.raises(CheckError):
        compile_program("process P() { y = 2; }")


# ---------------------------------------------------------------- interpreter
def run_single(source, name="Main", *args, **system_kwargs):
    compiled = compile_program(source)
    system = HopeSystem(**system_kwargs)
    compiled.spawn(system, "main", name, *args)
    system.run(max_events=500_000)
    return system


def test_arithmetic_and_return():
    source = """
    process Main(a, b) {
        var x = a * 10 + b;
        return x % 7;
    }
    """
    system = run_single(source, "Main", 4, 3)
    assert system.result_of("main") == 43 % 7


def test_emit_and_control_flow():
    source = """
    process Main() {
        var i = 0;
        while (i < 4) {
            if (i % 2 == 0) { emit(tuple("even", i)); } else { emit(tuple("odd", i)); }
            i = i + 1;
        }
    }
    """
    system = run_single(source)
    assert system.outputs("main") == [
        ("even", 0), ("odd", 1), ("even", 2), ("odd", 3)
    ]


def test_compute_advances_clock():
    source = """
    process Main() {
        compute(4.5);
        return now();
    }
    """
    system = run_single(source)
    assert system.result_of("main") == 4.5


def test_message_roundtrip_between_interpreted_processes():
    source = """
    process Pinger(peer) {
        send(peer, "ping");
        var msg = recv();
        return payload(msg);
    }
    process Ponger() {
        var msg = recv();
        send(sender(msg), tuple(payload(msg), "pong"));
    }
    """
    compiled = compile_program(source)
    system = HopeSystem(latency=ConstantLatency(2.0))
    compiled.spawn(system, "ponger", "Ponger")
    compiled.spawn(system, "pinger", "Pinger", "ponger")
    system.run()
    assert system.result_of("pinger") == ("ping", "pong")


def test_guess_affirm_deny_in_language():
    source = """
    process Main(verifier) {
        var x = aid_init("x");
        send(verifier, x);
        if (guess(x)) {
            emit("fast");
            compute(10);
        } else {
            emit("slow");
        }
        emit("done");
    }
    process Verifier(outcome) {
        var msg = recv();
        compute(2);
        if (outcome == "affirm") { affirm(payload(msg)); } else { deny(payload(msg)); }
    }
    """
    compiled = compile_program(source)
    for outcome, expected in [("affirm", ["fast", "done"]), ("deny", ["slow", "done"])]:
        system = HopeSystem()
        compiled.spawn(system, "verifier", "Verifier", outcome)
        compiled.spawn(system, "main", "Main", "verifier")
        system.run()
        assert system.committed_outputs("main") == expected


def test_rollback_restores_interpreter_state():
    """Interpreted variables mutated speculatively must be rolled back."""
    source = """
    process Main(verifier) {
        var acc = 100;
        var x = aid_init("x");
        send(verifier, x);
        if (guess(x)) {
            acc = acc + 1000;
            compute(5);
        }
        return acc;
    }
    process Verifier() {
        var msg = recv();
        compute(1);
        deny(payload(msg));
    }
    """
    compiled = compile_program(source)
    system = HopeSystem()
    compiled.spawn(system, "verifier", "Verifier")
    compiled.spawn(system, "main", "Main", "verifier")
    system.run()
    assert system.result_of("main") == 100


def test_free_of_in_language():
    source = """
    process Main(checker) {
        var x = aid_init("x");
        send(checker, x);
        guess(x);
        compute(5);
    }
    process Checker() {
        var msg = recv();
        free_of(payload(msg));
    }
    """
    compiled = compile_program(source)
    system = HopeSystem()
    compiled.spawn(system, "checker", "Checker")
    compiled.spawn(system, "main", "Main", "checker")
    system.run()
    # the one AID, affirmed (and retired by the pass the run owes)
    stats = system.stats()
    assert (stats["aids_affirmed"], stats["aids_denied"], stats["aids_pending"]) == (1, 0, 0)


def test_rpc_call_builtin():
    source = """
    process Client(server) {
        var a = call(server, tuple("add", 2, 3));
        var b = call(server, tuple("add", a, 10));
        return b;
    }
    process Server() {
        while (true) {
            var msg = recv();
            var req = payload(msg);
            reply(msg, nth(req, 1) + nth(req, 2));
        }
    }
    """
    compiled = compile_program(source)
    system = HopeSystem(latency=ConstantLatency(1.0))
    compiled.spawn(system, "server", "Server")
    compiled.spawn(system, "client", "Client", "server")
    system.run()
    assert system.result_of("client") == 15


def test_wrong_arg_count_at_spawn():
    compiled = compile_program("process Main(a, b) { return a + b; }")
    system = HopeSystem()
    compiled.spawn(system, "main", "Main", 1)
    from repro.lang import HopeLangError

    with pytest.raises(HopeLangError):
        system.run()
