"""End-to-end tests of the KMP kernel against a Python reference."""

from hypothesis import given, settings, strategies as st

from repro.isa import Machine
from repro.isa.programs import (
    kmp_failure_table,
    kmp_search_program,
    load_words,
)


def _kmp_count(text: bytes, pattern: bytes) -> int:
    """Overlapping-match count via the machine."""
    machine = Machine(kmp_search_program())
    machine.memory.write_bytes(0x1000, text)
    machine.memory.write_bytes(0x4000, pattern)
    load_words(machine.memory, 0x5000, kmp_failure_table(pattern))
    machine.write_reg(1, 0x1000)
    machine.write_reg(2, len(text))
    machine.write_reg(3, 0x4000)
    machine.write_reg(4, len(pattern))
    machine.write_reg(5, 0x5000)
    machine.run()
    return machine.read_reg(10)


def _ref_count(text: bytes, pattern: bytes) -> int:
    count = start = 0
    while True:
        idx = text.find(pattern, start)
        if idx < 0:
            return count
        count += 1
        start = idx + 1          # overlapping matches


def test_kmp_simple():
    assert _kmp_count(b"abababa", b"aba") == 3


def test_kmp_no_match():
    assert _kmp_count(b"aaaa", b"b") == 0


def test_kmp_repetitive_pattern():
    assert _kmp_count(b"aaaaaa", b"aa") == 5


@given(
    st.binary(min_size=0, max_size=80).map(lambda b: bytes(x % 3 for x in b)),
    st.binary(min_size=1, max_size=4).map(lambda b: bytes(x % 3 for x in b)),
)
@settings(max_examples=30, deadline=None)
def test_kmp_matches_reference(text, pattern):
    assert _kmp_count(text, pattern) == _ref_count(text, pattern)


def test_kmp_failure_table_reference():
    assert kmp_failure_table(b"ababaca") == [0, 0, 1, 2, 3, 0, 1]
    assert kmp_failure_table(b"aaaa") == [0, 1, 2, 3]
