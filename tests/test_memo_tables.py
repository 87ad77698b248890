"""The memo tables in the code are the ones the docs name and count."""

import re
from pathlib import Path

import symlie

from helpers import memo_tables

README = Path(__file__).resolve().parents[1] / "README.md"
STATED = re.compile(r"keeps\s+(\d+)\s+memo\s+tables")


MEMO_TABLES = {
    "lie.hk", "lie.staircase_skew", "lie.named_series",
    "oracle._perm_count", "oracle._collected_mul_term",
    "oracle._power_product", "oracle.alternating_count",
    "partitions.partitions_of",
    "symfunc._key", "symfunc._partition", "symfunc._character", "symfunc._h_form",
    "verify._quotient",
}


def test_memo_tables_are_the_pinned_ones():
    assert sorted(memo_tables()) == sorted(MEMO_TABLES)


def test_memo_table_count_matches_the_docs():
    count = len(memo_tables())
    assert [int(n) for n in STATED.findall(symlie.__doc__)] == [count]
    assert [int(n) for n in STATED.findall(README.read_text())] == [count]
    doc = symlie.__doc__
    assert [name for name in sorted(MEMO_TABLES) if name not in doc] == []


def test_partition_key_tables_are_cleared_by_cache_clear():
    from symlie.symfunc import _key, _partition

    assert {"symfunc._key", "symfunc._partition"} <= set(memo_tables())
    _key((3, 1))
    _partition(_key((2, 2)))
    _key.cache_clear()
    _partition.cache_clear()
    assert _key.cache_info().currsize == _partition.cache_info().currsize == 0
    # a key depends on the partition alone, so clearing costs only time
    assert _partition(_key((3, 1))) == (3, 1)
