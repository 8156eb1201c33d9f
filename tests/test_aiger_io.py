"""Tests for AIGER reading and writing (ASCII and binary)."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.aiger import (
    AIG,
    AigerError,
    AigerParseError,
    parse_aiger,
    read_aiger,
    to_aag_string,
    write_aag,
    write_aig,
)
from repro.aiger.writer import to_aig_bytes
from repro.benchgen import fifo_controller, parity_counter, token_ring


def _example_aig():
    aig = AIG(comment="example")
    enable = aig.add_input("enable")
    latch = aig.add_latch(init=0, name="state")
    aig.set_latch_next(latch, aig.xor_gate(latch, enable))
    aig.add_bad(latch)
    aig.add_output(aig.negate(latch))
    return aig


def _equivalent_behaviour(a, b, steps=6):
    """Compare two AIGs by simulating the same input sequence."""
    assert a.num_inputs == b.num_inputs
    assert a.num_latches == b.num_latches
    sequence_a = [
        {lit: bool((step + i) % 2) for i, lit in enumerate(a.inputs)}
        for step in range(steps)
    ]
    sequence_b = [
        {lit: bool((step + i) % 2) for i, lit in enumerate(b.inputs)}
        for step in range(steps)
    ]
    trace_a = a.simulate(sequence_a)
    trace_b = b.simulate(sequence_b)
    for ra, rb in zip(trace_a, trace_b):
        assert ra["bads"] == rb["bads"]
        assert ra["outputs"] == rb["outputs"]


class TestAsciiFormat:
    def test_roundtrip_preserves_structure(self):
        aig = _example_aig()
        parsed = parse_aiger(to_aag_string(aig))
        assert parsed.num_inputs == aig.num_inputs
        assert parsed.num_latches == aig.num_latches
        assert parsed.num_ands == aig.num_ands
        assert parsed.bads == aig.bads
        assert parsed.outputs == aig.outputs

    def test_roundtrip_preserves_behaviour(self):
        aig = _example_aig()
        _equivalent_behaviour(aig, parse_aiger(to_aag_string(aig)))

    def test_symbol_table_roundtrip(self):
        aig = _example_aig()
        parsed = parse_aiger(to_aag_string(aig))
        assert parsed.input_name(parsed.inputs[0]) == "enable"
        assert parsed.latches[0].name == "state"

    def test_comment_roundtrip(self):
        parsed = parse_aiger(to_aag_string(_example_aig()))
        assert parsed.comment == "example"

    def test_write_and_read_file(self, tmp_path):
        aig = _example_aig()
        path = tmp_path / "model.aag"
        write_aag(aig, path)
        _equivalent_behaviour(aig, read_aiger(path))

    def test_header_counts(self):
        text = to_aag_string(_example_aig())
        header = text.splitlines()[0].split()
        assert header[0] == "aag"
        assert header[2] == "1"  # inputs
        assert header[3] == "1"  # latches

    def test_latch_reset_values(self):
        aig = AIG()
        l0 = aig.add_latch(init=0)
        l1 = aig.add_latch(init=1)
        lx = aig.add_latch(init=None)
        for latch in (l0, l1, lx):
            aig.set_latch_next(latch, latch)
        aig.add_output(l0)
        parsed = parse_aiger(to_aag_string(aig))
        assert parsed.latches[0].init == 0
        assert parsed.latches[1].init == 1
        assert parsed.latches[2].init is None

    def test_not_aiger_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("hello world")

    def test_malformed_header_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("aag 1\n")

    def test_truncated_document_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("aag 3 1 1 1 0\n2\n")


class TestBinaryFormat:
    def test_roundtrip_behaviour(self):
        aig = _example_aig()
        parsed = parse_aiger(to_aig_bytes(aig))
        _equivalent_behaviour(aig, parsed)

    def test_roundtrip_of_generated_benchmarks(self):
        for case in (token_ring(4), fifo_controller(3)):
            parsed = parse_aiger(to_aig_bytes(case.aig))
            _equivalent_behaviour(case.aig, parsed)

    def test_write_and_read_file(self, tmp_path):
        aig = _example_aig()
        path = tmp_path / "model.aig"
        write_aig(aig, path)
        _equivalent_behaviour(aig, read_aiger(path))

    def test_binary_is_smaller_than_ascii_for_large_models(self):
        case = token_ring(10)
        assert len(to_aig_bytes(case.aig)) < len(to_aag_string(case.aig).encode())

    def test_ascii_and_binary_agree(self):
        aig = _example_aig()
        from_ascii = parse_aiger(to_aag_string(aig))
        from_binary = parse_aiger(to_aig_bytes(aig))
        _equivalent_behaviour(from_ascii, from_binary)


def _aiger19_example():
    aig = _example_aig()
    aig.add_constraint(aig.inputs[0])
    aig.add_justice([aig.latches[0].lit, aig.negate(aig.inputs[0])])
    aig.add_fairness(aig.inputs[0])
    return aig


_FUZZ_SEEDS = [
    to_aag_string(parity_counter(4, safe=True).aig).encode("ascii"),
    to_aig_bytes(parity_counter(4, safe=True).aig),
    to_aag_string(_aiger19_example()).encode("ascii"),
    to_aig_bytes(_aiger19_example()),
]

_MUTATION = st.tuples(
    st.sampled_from(["set", "insert", "delete"]),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=255),
)


def _mutate(document, mutations):
    data = bytearray(document)
    for op, position, value in mutations:
        index = position % (len(data) + 1)
        if op == "insert":
            data.insert(index, value)
        elif data and op == "set":
            data[index % len(data)] = value
        elif data:
            del data[index % len(data)]
    return bytes(data)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "data", [b"aag 1 1 0 1 0\n2\n\xe7\n", "aag 1 1 0 1 0\n2\n\u00e7\n"]
    )
    def test_non_ascii_text_is_a_parse_error(self, data):
        with pytest.raises(AigerParseError, match="non-ASCII"):
            parse_aiger(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"aag 1 1 0 1 0\n\xe7\n2\n",
            b"aag 1 0 1 1 0\n2 \xe7\n2\n",
            b"aag 3 1 0 1 1\n2\n6\n6 2 \xe7\n",
            b"aag 1 1 0 1 0\n2\n2\ni0 r\xe9q\n",
            b"aag 1 1 0 1 0\n2\n2\nc\ncaf\xe9\n",
            b"aag 1 1 0 1 0 \xff\n2\n2\n",
        ],
        ids=["input", "latch", "and", "symbol", "comment", "header"],
    )
    def test_non_ascii_anywhere_in_text_reports_its_offset(self, data):
        offset = next(i for i, byte in enumerate(data) if byte >= 0x80)
        with pytest.raises(AigerParseError, match=f"offset {offset}$"):
            parse_aiger(data)

    def test_unencodable_str_is_a_parse_error(self):
        # A lone surrogate cannot even be encoded; it must not escape as
        # UnicodeEncodeError.
        with pytest.raises(AigerParseError, match="offset 16"):
            parse_aiger("aag 1 1 0 1 0\n2\n\udce7\n")

    def test_binary_comment_may_hold_any_bytes(self):
        aig = token_ring(3).aig
        parsed = parse_aiger(to_aig_bytes(aig) + b"c\ncaf\xe9 \xff\n")
        _equivalent_behaviour(aig, parsed)

    @seed(20241017)
    @settings(max_examples=400, deadline=None, database=None)
    @given(
        document=st.sampled_from(_FUZZ_SEEDS),
        mutations=st.lists(_MUTATION, min_size=1, max_size=4),
        as_text=st.booleans(),
    )
    def test_mutated_documents_only_raise_parse_errors(
        self, document, mutations, as_text
    ):
        data = _mutate(document, mutations)
        try:
            parse_aiger(data.decode("latin-1") if as_text else data)
        except AigerParseError:
            pass

    def test_cli_check_reports_parse_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "broken.aag"
        path.write_bytes(b"aag 1 1 0 1 0\n2\n\xe7\n")
        assert main(["check", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().out
