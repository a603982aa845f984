"""The envelope: every request at the fastest its text was ever answered."""

from benchmarks.harness.schedule import Request
from benchmarks.harness.serving import Pass, envelope


def _pass(latencies):
    return Pass(latencies=latencies, failed=[], elapsed=sum(latencies), client_cpu_s=0.0,
                server_cpu_s=0.0, connections=len(latencies), response_bytes=0)


def test_minimum_is_taken_per_text_over_every_pass_and_position():
    q1, q5 = Request("Q1", "Q1", "SELECT 1"), Request("Q5", "Q5:r", "SELECT 5")
    schedule = [q1, q5, q1]
    #           pass 0: a burst inflates everything; pass 1: clean but for one Q1
    passes = [_pass([0.030, 0.002, 0.028]), _pass([0.021, 0.001, 0.035])]
    assert envelope(schedule, passes) == [0.021, 0.001, 0.021]


def test_a_slow_pass_cannot_raise_the_envelope():
    request = Request("Q1", "Q1", "SELECT 1")
    clean = envelope([request] * 3, [_pass([0.02, 0.02, 0.02])])
    with_burst = envelope([request] * 3, [_pass([0.02, 0.02, 0.02]), _pass([0.05, 0.04, 0.06])])
    assert with_burst == clean
