"""Tests for the embedded aggregation state store (paper §4.1.3)."""
import pickle

import pytest

from repro.core.statestore import StateStore


def test_put_get_roundtrip(tmp_path):
    s = StateStore(str(tmp_path))
    s.put("card-1", {"sum": 10.0, "n": 2})
    assert s.get("card-1") == {"sum": 10.0, "n": 2}
    assert s.get("missing") is None
    assert s.gets == 2 and s.puts == 1


def test_values_are_serialized_not_shared():
    """Like RocksDB: a read returns a copy; mutating it does not write back."""
    s = StateStore()
    s.put("k", [1, 2])
    v = s.get("k")
    v.append(3)
    assert s.get("k") == [1, 2]


def test_column_families_are_isolated():
    s = StateStore()
    s.put("k", 1, cf="a")
    s.put("k", 2, cf="b")
    assert s.get("k", cf="a") == 1
    assert s.get("k", cf="b") == 2
    assert s.get("k") is None  # default cf untouched
    s.delete("k", cf="a")
    assert s.get("k", cf="a") is None
    assert s.get("k", cf="b") == 2


def test_len_and_keys():
    s = StateStore()
    s.put("a", 1)
    s.put("b", 2, cf="other")
    assert len(s) == 2
    assert sorted(s.keys()) == ["a"]
    assert sorted(s.keys("other")) == ["b"]


def test_checkpoint_restore_roundtrip(tmp_path):
    s = StateStore(str(tmp_path))
    s.put("a", {"x": 1})
    s.put(("c", 5), 7, cf="panes")
    path = s.checkpoint("t1")
    s2 = StateStore(str(tmp_path / "copy"))
    s2.load(path)
    assert s2.get("a") == {"x": 1}
    assert s2.get(("c", 5), cf="panes") == 7


def test_loaded_store_takes_new_column_families(tmp_path):
    """After ``load`` a column family first written then works, and keys,
    len, delete and the access counters behave as in a fresh store, also
    for a checkpoint that holds its column families as a plain dict."""
    s = StateStore(str(tmp_path))
    s.put("a", 1)
    s.put("b", 2, cf="x")
    plain = tmp_path / "plain.state"
    plain.write_bytes(pickle.dumps({"default": {"a": pickle.dumps(1)},
                                    "x": {"b": pickle.dumps(2)}}))
    for path in (s.checkpoint("t1"), str(plain)):
        s2 = StateStore(str(tmp_path / "copy"))
        s2.load(path)
        s2.put("k", 3, cf="new")
        assert s2.get("k", cf="new") == 3
        assert s2.get("k", cf="never-written") is None
        assert sorted(s2.keys("new")) == ["k"] and sorted(s2.keys("x")) == ["b"]
        assert list(s2.keys("never-written")) == []
        assert len(s2) == 3
        s2.delete("b", cf="x")
        s2.delete("k", cf="never-written")
        assert len(s2) == 2 and list(s2.keys("x")) == []
        assert (s2.gets, s2.puts) == (2, 1)


def test_checkpoint_without_dir_raises():
    with pytest.raises(RuntimeError):
        StateStore().checkpoint()
