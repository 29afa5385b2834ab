"""Scenario shrinking: 1-minimality, determinism, budgets.

The planted-deadlock scenario is the canonical workload: two traffic
flows, a killer fault and a decoy fault, of which exactly one packet
and the killer explain the livelock.  The shrinker must find that core
— and *only* that core — deterministically and within its run budget.
"""

import dataclasses

import pytest

from repro.sim import (
    ShrinkError,
    Simulation,
    failure_signature,
    load_bundle,
    planted_deadlock_scenario,
    replay_bundle,
    shrink_bundle,
    shrink_scenario,
)
from repro.sim.sentinel import SentinelTrip
from repro.sim.shrink import ddmin, greedy_min_subset, main as shrink_main


def fails_with(scenario, signature) -> bool:
    try:
        Simulation(scenario).run()
    except Exception as exc:
        return failure_signature(exc) == signature
    return False


@pytest.fixture(scope="module")
def planted_shrink():
    """One shrink of the planted scenario, shared by read-only tests."""
    return shrink_scenario(planted_deadlock_scenario())


class TestMinimizers:
    def core_predicate(self, calls):
        def still_fails(candidate):
            calls.append(tuple(candidate))
            return 3 in candidate and 7 in candidate

        return still_fails

    def test_greedy_finds_the_core(self):
        calls = []
        kept = greedy_min_subset(
            list(range(10)), self.core_predicate(calls)
        )
        assert kept == [3, 7]

    def test_ddmin_finds_the_core(self):
        calls = []
        kept = ddmin(list(range(40)), self.core_predicate(calls))
        assert kept == [3, 7]
        # chunked removal beats one-at-a-time on a 40-element list
        assert len(calls) < 40 * 3

    def test_empty_and_unremovable(self):
        assert greedy_min_subset([], lambda c: True) == []
        assert greedy_min_subset([1, 2], lambda c: len(c) == 2) == [1, 2]
        assert ddmin([5], lambda c: True) == [5]


class TestShrinkScenario:
    def test_shrunk_still_fails_same_way(self, planted_shrink):
        assert planted_shrink.signature == "livelock"
        assert fails_with(planted_shrink.shrunk, "livelock")

    def test_shrunk_is_a_subset(self, planted_shrink):
        original, shrunk = planted_shrink.original, planted_shrink.shrunk
        for field_name in ("trojans", "faults"):
            kept = getattr(shrunk, field_name)
            pool = list(getattr(original, field_name))
            assert all(spec in pool for spec in kept)
        # every kept packet existed in the original schedules
        original_packets = {
            p for t in original.traffic for p in t.packets
        }
        for t in shrunk.traffic:
            assert set(t.packets) <= original_packets

    def test_finds_the_planted_core(self, planted_shrink):
        shrunk = planted_shrink.shrunk
        assert len(shrunk.traffic) == 1
        assert len(shrunk.traffic[0].packets) == 1
        assert shrunk.traffic[0].packets[0].src_core == 0  # the victim
        assert len(shrunk.faults) == 1
        assert "killer" in shrunk.faults[0].labels
        assert shrunk.max_cycles < planted_shrink.original.max_cycles
        assert not planted_shrink.budget_exhausted

    def test_one_minimal(self, planted_shrink):
        """Removing any single remaining flow or fault makes the
        scenario pass: the shrink really is 1-minimal."""
        shrunk = planted_shrink.shrunk
        for field_name in ("traffic", "faults"):
            items = getattr(shrunk, field_name)
            for index in range(len(items)):
                candidate = dataclasses.replace(
                    shrunk,
                    **{field_name: items[:index] + items[index + 1:]},
                )
                assert not fails_with(candidate, "livelock")

    def test_deterministic(self, planted_shrink):
        again = shrink_scenario(planted_deadlock_scenario())
        assert (
            again.shrunk.content_hash()
            == planted_shrink.shrunk.content_hash()
        )
        assert again.runs == planted_shrink.runs

    def test_diff_names_the_removals(self, planted_shrink):
        diff = planted_shrink.diff()
        assert "failure signature: livelock" in diff
        assert "removed" in diff and "kept" in diff
        assert "max_cycles:" in diff

    def test_removes_an_unrelated_attack(self):
        """A gray-hole off the victim's path is not part of the planted
        core: the shrink removes it and says so."""
        from repro.noc.topology import Direction
        from repro.sim import DropAttackSpec

        scenario = dataclasses.replace(
            planted_deadlock_scenario(),
            attacks=(DropAttackSpec(link=(10, Direction.NORTH)),),
        )
        result = shrink_scenario(scenario)
        assert result.shrunk.attacks == ()
        assert "removed DropAttackSpec on link (10, NORTH)" in result.diff()

    def test_removes_an_unrelated_wire_fault(self):
        from repro.noc.topology import Direction
        from repro.sim.scenario import LinkKillSpec

        scenario = dataclasses.replace(
            planted_deadlock_scenario(),
            wire_faults=(LinkKillSpec(link=(10, Direction.NORTH), at=20),),
        )
        result = shrink_scenario(scenario)
        assert result.shrunk.wire_faults == ()
        assert "removed LinkKillSpec on link (10, NORTH)" in result.diff()

    def test_budget_exhaustion_keeps_a_failing_scenario(self):
        result = shrink_scenario(planted_deadlock_scenario(), max_runs=3)
        assert result.budget_exhausted
        assert result.runs <= 3
        assert fails_with(result.shrunk, "livelock")

    def test_passing_scenario_refused(self):
        scenario = dataclasses.replace(
            planted_deadlock_scenario(), faults=()
        )
        with pytest.raises(ShrinkError, match="does not fail"):
            shrink_scenario(scenario)

    def test_wrong_signature_refused(self):
        with pytest.raises(ShrinkError, match="deadlock"):
            shrink_scenario(
                planted_deadlock_scenario(), signature="deadlock"
            )


class TestShrinkBundle:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("shrink")
        sim = Simulation(planted_deadlock_scenario())
        sim.enable_forensics(out)
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        return excinfo.value.repro_bundle

    def test_emits_replayable_shrunk_bundle(self, bundle):
        result, out = shrink_bundle(bundle)
        assert out.parent == bundle.parent
        assert "-shrunk" in out.name
        shrunk = load_bundle(out)
        assert shrunk.signature == "livelock"
        assert shrunk.scenario.name.endswith("-shrunk")
        assert (out / "shrink-diff.txt").read_text().startswith(
            "failure signature:"
        )
        replayed = replay_bundle(out)
        assert failure_signature(replayed) == "livelock"

    def test_cli_asserts_localization(self, bundle, capsys):
        code = shrink_main([
            str(bundle),
            "--assert-max-traffic", "2",
            "--assert-max-attacks", "1",
        ])
        printed = capsys.readouterr().out
        assert code == 0, printed
        assert "shrunk bundle:" in printed

    def test_cli_assertion_failure(self, bundle, capsys):
        assert shrink_main([str(bundle), "--assert-max-attacks", "0"]) == 1
        assert "ASSERTION FAILED" in capsys.readouterr().out

    def test_cli_rejects_garbage(self, tmp_path, capsys):
        assert shrink_main([str(tmp_path)]) == 1
        assert "shrink FAILED" in capsys.readouterr().out
