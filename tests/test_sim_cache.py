"""Result cache: hits, misses, and invalidation."""

import json

import pytest

from repro.noc.config import PAPER_CONFIG
from repro.sim import (
    ExplicitTraffic,
    PacketSpec,
    ResultCache,
    Scenario,
    code_version,
    spec_hash,
)
from repro.sim import cache as cache_mod


def tiny_scenario(name="cache-tiny") -> Scenario:
    return Scenario(
        name=name,
        cfg=PAPER_CONFIG,
        traffic=(
            ExplicitTraffic(packets=(
                PacketSpec(pkt_id=0, src_core=0, dst_core=5),
            )),
        ),
        max_cycles=500,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestResultCache:
    def test_miss_then_hit(self, cache):
        key = spec_hash({"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}

    def test_corrupt_entry_is_a_miss(self, cache):
        key = spec_hash({"x": 2})
        path = cache.put(key, {"value": 1})
        path.write_text("{ not json")
        assert cache.get(key) is None

    def test_stale_code_version_is_a_miss(self, cache):
        key = spec_hash({"x": 3})
        path = cache.put(key, {"value": 1})
        entry = json.loads(path.read_text())
        entry["code_version"] = "0" * 16
        # a version bump renames the entry file too; rewrite in place to
        # simulate an old tree's leftover colliding on the same path
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_truncated_entry_is_a_miss(self, cache):
        key = spec_hash({"x": 20})
        path = cache.put(key, {"value": 1})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.get(key) is None

    def test_garbage_binary_entry_is_a_miss(self, cache):
        key = spec_hash({"x": 21})
        path = cache.put(key, {"value": 1})
        path.write_bytes(b"\x00\xff garbage \x80")
        assert cache.get(key) is None

    def test_non_dict_entry_is_a_miss(self, cache):
        key = spec_hash({"x": 22})
        path = cache.put(key, {"value": 1})
        path.write_text('["a", "list"]')
        assert cache.get(key) is None

    def test_entries_carry_format_stamp(self, cache):
        key = spec_hash({"x": 23})
        path = cache.put(key, {"value": 1})
        assert json.loads(path.read_text())["format"] == cache_mod.CACHE_FORMAT

    def test_unknown_format_stamp_is_a_miss(self, cache):
        key = spec_hash({"x": 24})
        path = cache.put(key, {"value": 1})
        entry = json.loads(path.read_text())
        entry["format"] = cache_mod.CACHE_FORMAT + 1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_missing_format_stamp_is_a_miss(self, cache):
        # pre-versioning entries must not be revived
        key = spec_hash({"x": 25})
        path = cache.put(key, {"value": 1})
        entry = json.loads(path.read_text())
        del entry["format"]
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_entries_shard_by_hash_prefix(self, cache):
        key = spec_hash({"x": 4})
        path = cache.put(key, {})
        assert path.parent.name == key[:2]
        assert code_version() in path.name

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert ResultCache().root == tmp_path / "env-cache"


class TestCachedRun:
    def test_spec_hash_is_order_insensitive(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})
