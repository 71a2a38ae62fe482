"""Tests for the trace container and transforms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.trace import Trace, concatenate, interleave


def simple_trace(name="t", n=10, ip=0x1, base=0):
    t = Trace(name)
    for i in range(n):
        t.append(ip, base + i * 64, gap=3, dep=i % 2)
    return t


class TestContainer:
    def test_append_and_len(self):
        t = simple_trace(n=5)
        assert len(t) == 5

    def test_record_shape(self):
        t = Trace("t")
        t.append(0x1, 0x40, is_write=True, gap=7, dep=2)
        assert t.records[0] == (0x1, 0x40, True, 7, 2)

    def test_instruction_count(self):
        t = simple_trace(n=4)  # 4 records + 4*3 gaps
        assert t.instruction_count == 16

    def test_unique_ips_and_lines(self):
        t = Trace("t")
        t.append(1, 0)
        t.append(1, 64)
        t.append(2, 64)
        assert t.unique_ips == 2
        assert t.unique_lines == 2

    def test_write_fraction(self):
        t = Trace("t")
        t.append(1, 0, is_write=True)
        t.append(1, 64)
        assert t.write_fraction == 0.5

    def test_footprint(self):
        t = simple_trace(n=10)
        assert t.footprint_bytes() == 10 * 64

    def test_slice(self):
        t = simple_trace(n=10)
        s = t.slice(2, 5)
        assert len(s) == 3
        assert s.records == t.records[2:5]

    def test_repeated(self):
        t = simple_trace(n=3)
        assert len(t.repeated(4)) == 12

    def test_iteration(self):
        t = simple_trace(n=3)
        assert list(t) == t.records


class TestSerialisation:
    """The one persisted trace format is the trace store."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=2**40),
            st.booleans(),
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1, max_size=50,
    ))
    def test_roundtrip_property(self, records):
        import tempfile
        from pathlib import Path

        from repro.memory.tracestore import (load_trace_store,
                                             write_trace_store)

        t = Trace("p", suite="spec17", description="property trace")
        t.extend(records)
        with tempfile.TemporaryDirectory() as d:
            path = write_trace_store(t, Path(d) / "p.trc")
            loaded = load_trace_store(path)
            try:
                loaded.verify()
                assert loaded.records == list(records)
                assert (loaded.name, loaded.suite, loaded.description) == (
                    "p", "spec17", "property trace")
            finally:
                loaded.close()


class TestCombinators:
    def test_interleave_round_robin(self):
        a = simple_trace("a", n=2, ip=1)
        b = simple_trace("b", n=2, ip=2)
        out = interleave([a, b], "mix")
        assert [r[0] for r in out.records] == [1, 2, 1, 2]

    def test_interleave_uneven_lengths(self):
        a = simple_trace("a", n=3, ip=1)
        b = simple_trace("b", n=1, ip=2)
        out = interleave([a, b], "mix")
        assert len(out) == 4
        assert [r[0] for r in out.records] == [1, 2, 1, 1]

    def test_interleave_chunked(self):
        a = simple_trace("a", n=4, ip=1)
        b = simple_trace("b", n=4, ip=2)
        out = interleave([a, b], "mix", chunk=2)
        assert [r[0] for r in out.records] == [1, 1, 2, 2, 1, 1, 2, 2]

    def test_concatenate(self):
        a = simple_trace("a", n=2, ip=1)
        b = simple_trace("b", n=3, ip=2)
        out = concatenate([a, b], "phases")
        assert len(out) == 5
        assert [r[0] for r in out.records] == [1, 1, 2, 2, 2]

    def test_empty_inputs(self):
        assert len(interleave([], "e")) == 0
        assert len(concatenate([], "e")) == 0
