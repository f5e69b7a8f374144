from __future__ import annotations

import json

import pytest

from otq import (
    REJECT,
    SimilarityError,
    SimilarityProtocol,
    load_similarity_table,
    protocol_from_spec,
    similarity,
)


def table_lines(rows):
    return [json.dumps(r) for r in rows]


class TestStrict:
    def test_exact_match(self):
        proto = SimilarityProtocol.strict()
        assert similarity(proto, "wheel", "wheel") == 1.0

    def test_mismatch(self):
        proto = SimilarityProtocol.strict()
        assert similarity(proto, "wheel", "tire") == 0.0


class TestConstantOne:
    def test_any_pair(self):
        proto = SimilarityProtocol.constant_one()
        assert similarity(proto, "wheel", "tire") == 1.0
        assert similarity(proto, "a", "a") == 1.0


class TestTable:
    def test_symmetric_lookup(self):
        proto = load_similarity_table(
            table_lines([{"a": "wheel", "b": "tire", "sim": 0.9}]))
        assert similarity(proto, "wheel", "tire") == 0.9
        assert similarity(proto, "tire", "wheel") == 0.9

    def test_self_pair_defaults_to_one(self):
        proto = load_similarity_table(
            table_lines([{"a": "x", "b": "y", "sim": 0.2}]))
        assert similarity(proto, "wheel", "wheel") == 1.0

    def test_self_pair_in_table_wins(self):
        proto = load_similarity_table(
            table_lines([{"a": "x", "b": "x", "sim": 0.7}]))
        assert similarity(proto, "x", "x") == 0.7

    def test_empty_table_with_default_zero(self):
        proto = load_similarity_table([], default_for_missing=0.0)
        assert similarity(proto, "a", "b") == 0.0
        assert similarity(proto, "a", "a") == 1.0

    def test_missing_pair_rejected_by_default(self):
        proto = load_similarity_table(
            table_lines([{"a": "x", "b": "y", "sim": 0.5}]))
        assert proto.default_for_missing == REJECT
        with pytest.raises(SimilarityError, match="wheel"):
            similarity(proto, "wheel", "tire")

    def test_out_of_range_sim_rejected(self):
        with pytest.raises(SimilarityError, match="outside"):
            load_similarity_table(table_lines([{"a": "a", "b": "b", "sim": 1.2}]))

    def test_duplicate_pair_later_wins(self, caplog):
        proto = load_similarity_table(table_lines([
            {"a": "x", "b": "y", "sim": 0.3},
            {"a": "y", "b": "x", "sim": 0.8},
        ]))
        assert similarity(proto, "x", "y") == 0.8

    def test_labels_normalized_on_load(self):
        proto = load_similarity_table(
            table_lines([{"a": "Wheel", "b": "TIRE", "sim": 0.4}]))
        assert similarity(proto, "wheel", "tire") == 0.4

    def test_syntax_error_names_line_and_byte_offset(self):
        with pytest.raises(SimilarityError) as info:
            load_similarity_table(["", '{"a": "x", "b": "y", "sim": 0.5}', '{"a": "x",,}'])
        assert str(info.value) == ("line 3: malformed JSON at byte offset 10: "
                                   "Expecting property name enclosed in double quotes")

    def test_blank_test_follows_decoding(self):
        # U+3000 IDEOGRAPHIC SPACE is blank only once the bytes are decoded.
        proto = load_similarity_table(["\u3000\n".encode(),
                                       b'{"a": "x", "b": "y", "sim": 0.5}\n'])
        assert similarity(proto, "x", "y") == 0.5

    def test_malformed_rows_rejected(self):
        with pytest.raises(SimilarityError):
            load_similarity_table(["{not json"])
        with pytest.raises(SimilarityError):
            load_similarity_table([json.dumps({"a": "x", "sim": 0.5})])


class TestSymmetryProperty:
    def test_all_protocols_symmetric_and_bounded(self):
        protos = [
            SimilarityProtocol.strict(),
            SimilarityProtocol.constant_one(),
            load_similarity_table(
                table_lines([{"a": "a", "b": "b", "sim": 0.25},
                             {"a": "b", "b": "c", "sim": 0.75}]),
                default_for_missing=0.1),
        ]
        labels = ["a", "b", "c", "d"]
        for proto in protos:
            for x in labels:
                for y in labels:
                    v = similarity(proto, x, y)
                    assert 0.0 <= v <= 1.0
                    assert v == similarity(proto, y, x)

    def test_strict_lower_bounds_tables_on_identical_pairs(self):
        strict = SimilarityProtocol.strict()
        table = load_similarity_table([], default_for_missing=0.0)
        for label in ("a", "b", "zebra"):
            assert similarity(strict, label, label) <= similarity(table, label, label)


class TestSelector:
    def test_selectors(self, tmp_path):
        strict = protocol_from_spec("strict")
        assert similarity(strict, "x", "x") == 1.0
        assert similarity(strict, "x", "y") == 0.0
        assert similarity(protocol_from_spec("lq1"), "x", "y") == 1.0
        path = tmp_path / "table.jsonl"
        path.write_text(json.dumps({"a": "x", "b": "y", "sim": 0.5}) + "\n")
        proto = protocol_from_spec(f"table:{path}")
        assert similarity(proto, "x", "y") == 0.5
        with pytest.raises(SimilarityError, match="missing"):
            similarity(proto, "x", "z")

    def test_unknown_selector(self):
        with pytest.raises(SimilarityError):
            protocol_from_spec("fuzzy")
        with pytest.raises(SimilarityError):
            protocol_from_spec("table:")
