"""Scenario declarations: JSON round-trips and content hashing."""

import dataclasses
import json

import pytest

from repro.core import (
    Granularity,
    MitigationConfig,
    ObMethod,
    TargetSpec,
    TaspConfig,
)
from repro.noc.config import PAPER_CONFIG
from repro.noc.topology import Direction
from repro.resilience.containment import ContainmentConfig, ProbationConfig
from repro.resilience.detect import DetectConfig
from repro.resilience.localize import LocalizeConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.sim import (
    AppTraffic,
    DefenseSpec,
    DropAttackSpec,
    ExplicitTraffic,
    FloodTraffic,
    PacketSpec,
    Scenario,
    ScenarioDecodeError,
    SyntheticTraffic,
    TransientFaultSpec,
    TrojanSpec,
    trojan_specs,
)


def rich_scenario() -> Scenario:
    """One of everything: all traffic kinds, scheduled trojans, faults,
    and a fully-populated defense stack."""
    return Scenario(
        name="kitchen-sink",
        cfg=dataclasses.replace(PAPER_CONFIG, routing="west-first"),
        traffic=(
            SyntheticTraffic(pattern="transpose", injection_rate=0.05,
                             duration=200, seed=3),
            AppTraffic(profile="ferret", seed=5, duration=300,
                       rate_scale=2.0, cores=(0, 2, 4), domain=1,
                       vc_classes=(2,), pkt_id_base=500),
            FloodTraffic(rogue_cores=(1, 3), victim_cores=(20, 21),
                         rate=0.5, start_cycle=50, stop_cycle=250, seed=9),
            ExplicitTraffic(packets=(
                PacketSpec(pkt_id=7, src_core=0, dst_core=63, inject_at=12,
                           vc_class=1, mem_addr=0x55, payload=(1, 2)),
            )),
        ),
        trojans=(
            TrojanSpec(link=(0, Direction.EAST),
                       target=TargetSpec.for_dest(15),
                       config=TaspConfig(seed=4), enabled=False,
                       enable_at=100, disable_at=250),
        ),
        faults=(
            TransientFaultSpec(link=(1, Direction.NORTH), rate=0.1,
                               double_fraction=0.5, seed=2,
                               labels=("t", 3)),
        ),
        attacks=(
            DropAttackSpec(link=(3, Direction.EAST), drop_probability=0.8,
                           enable_at=60, disable_at=350, seed=6),
        ),
        defense=DefenseSpec(
            mitigated=True,
            mitigation=MitigationConfig(
                method_sequence=((ObMethod.SHUFFLE, Granularity.HEADER),),
            ),
            e2e=True,
            watchdog=WatchdogConfig(),
            containment=ContainmentConfig(max_actions_per_cycle=2),
            probation=ProbationConfig(required_clean=4, max_flaps=2),
            detector=DetectConfig(window=32, consecutive=3),
            localizer=LocalizeConfig(cluster_radius=3, min_score=5.0),
            tdm_domains=2,
            rerouted_links=((2, Direction.WEST),),
        ),
        duration=400,
        sample_interval=25,
        seed=11,
    )


class TestRoundTrip:
    def test_default_scenario(self):
        s = Scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_rich_scenario(self):
        s = rich_scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_json_is_actually_json(self):
        # the wire format survives a strict encode/decode cycle
        text = rich_scenario().to_json()
        assert Scenario.from_dict(json.loads(text)) == rich_scenario()

    def test_decoded_traffic_keeps_types(self):
        s = Scenario.from_json(rich_scenario().to_json())
        kinds = [type(t).__name__ for t in s.traffic]
        assert kinds == ["SyntheticTraffic", "AppTraffic", "FloodTraffic",
                         "ExplicitTraffic"]

    def test_attack_and_containment_round_trip(self):
        s = Scenario.from_json(rich_scenario().to_json())
        (attack,) = s.attacks
        assert isinstance(attack, DropAttackSpec)
        assert attack.link == (3, Direction.EAST)
        assert attack.drop_probability == 0.8
        assert isinstance(s.defense.containment, ContainmentConfig)
        assert s.defense.containment.max_actions_per_cycle == 2

    def test_probation_and_detector_round_trip(self):
        s = Scenario.from_json(rich_scenario().to_json())
        assert isinstance(s.defense.probation, ProbationConfig)
        assert s.defense.probation.required_clean == 4
        assert s.defense.probation.max_flaps == 2
        assert isinstance(s.defense.detector, DetectConfig)
        assert s.defense.detector.window == 32
        (trojan,) = s.trojans
        assert trojan.disable_at == 250

    def test_pre_containment_documents_still_decode(self):
        # scenarios serialized before attacks/containment existed
        data = json.loads(rich_scenario().to_json())
        del data["attacks"]
        del data["defense"]["containment"]
        s = Scenario.from_dict(data)
        assert s.attacks == ()
        assert s.defense.containment is None


class TestContentHash:
    def test_stable_across_calls(self):
        s = rich_scenario()
        assert s.content_hash() == rich_scenario().content_hash()

    def test_survives_round_trip(self):
        s = rich_scenario()
        assert Scenario.from_json(s.to_json()).content_hash() == \
            s.content_hash()

    def test_name_is_part_of_identity(self):
        s = Scenario()
        assert dataclasses.replace(s, name="other").content_hash() != \
            s.content_hash()

    def test_every_field_matters(self):
        base = Scenario()
        variants = [
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, duration=100),
            dataclasses.replace(base, max_cycles=99),
            dataclasses.replace(base, sample_interval=7),
            dataclasses.replace(
                base, cfg=dataclasses.replace(PAPER_CONFIG, num_vcs=2)
            ),
            dataclasses.replace(
                base, traffic=(SyntheticTraffic(),)
            ),
            dataclasses.replace(
                base,
                trojans=trojan_specs([(0, Direction.EAST)],
                                     TargetSpec.for_dest(15)),
            ),
            dataclasses.replace(base, defense=DefenseSpec(mitigated=True)),
        ]
        hashes = {v.content_hash() for v in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_trojan_seed_convention(self):
        # i-th infected link gets seed + i, like attach_trojans always did
        specs = trojan_specs(
            [(0, Direction.EAST), (1, Direction.WEST)],
            TargetSpec.for_dest(15),
            config=TaspConfig(seed=10),
        )
        assert [s.config.seed for s in specs] == [10, 11]


def pinned_scenarios() -> dict[str, Scenario]:
    """Scenarios whose hashes key caches, checkpoints and bundles in
    the wild: the runner's fig2 grid and campaign cases, the forensics
    demo, and the late-added fields (express channels, sentinel,
    engine)."""
    from repro.experiments import (
        distributed,
        fig2_faults,
        largescale,
        reinstate,
    )
    from repro.sim.forensics import planted_deadlock_scenario
    from repro.sim.sentinel import SentinelSpec

    out = {"default": Scenario(), "rich": rich_scenario()}
    for arm, row in fig2_faults.scenarios().items():
        for dist, scenario in row.items():
            out[f"fig2/{arm}/d{dist}"] = scenario
    out["distributed"] = distributed.build_scenario()
    for campaign in largescale.CAMPAIGNS:
        out[f"largescale/{campaign.name}"] = largescale._scenario(
            campaign, 2500, attacked=True
        )
    out["reinstate/recovery"] = reinstate._recovery_scenario(
        6000, 1500, True,
        ProbationConfig(start_after=400, probe_period=200,
                        required_clean=3),
    )
    out["planted-deadlock"] = planted_deadlock_scenario()
    out["express-event"] = Scenario(
        name="express-event",
        cfg=dataclasses.replace(PAPER_CONFIG, express_interval=2),
        traffic=(SyntheticTraffic(duration=200),),
        duration=300,
        sentinel=SentinelSpec(every=32),
        engine="event",
    )
    return out


#: literal sha256 content hashes; a codec change that moves one of
#: them orphans every cached result, checkpoint and bundle keyed by it
PINNED_HASHES = {
    "default":
        "690ff4d267de0362db178333063a394ccda84140396c8abd21c2551f1164a0e3",
    "rich":
        "259a9717c0f932a8c42d7e4fd70b7b4b9462bce94ba5b57bd29c468240848602",
    "fig2/clean/d1":
        "ae2e552ce5cd2b09962d45d7d1f5558bd871cbf8ca7c30ceaf91fb7c6177144c",
    "fig2/clean/d2":
        "e22ef3c41882a3f5bcfc74b66cdf18b95112497475c50d51c3c4eb0146283b6a",
    "fig2/clean/d3":
        "0d18e7f0961826b0ac1f61dcc04563ce2107abdf29383d044b809e7145288421",
    "fig2/clean/d4":
        "1a7aa06e0d9ad12ffc0153a48a418282376253606fe59ff36243d71ff506aa48",
    "fig2/clean/d5":
        "438c786f3b17fff408364770ea2793bb2111eaa0c1221f756d75e6f7cac954f7",
    "fig2/clean/d6":
        "3b63f98659c9b46f713190431fd1a63e176f29eb6c49c18c99e97d31fb4eec41",
    "fig2/transient/d1":
        "d3df2b250257317795c05aa63c80a21b7a26eddc5ec8796d517ae9fc94511360",
    "fig2/transient/d2":
        "54e30023d6024ee0b2394888f069da23240a5580e7bccfdad981f8d317feeaac",
    "fig2/transient/d3":
        "9eda18e3ef97ad0b9e6f067c60672599dc395f6958cf78d67c136c21451274ca",
    "fig2/transient/d4":
        "6c958c3ffd588ab3c695910b72aee878a1ac5645a3b3fa8a6924f43605bfc877",
    "fig2/transient/d5":
        "83bb7744059310aab84439856b79d9c31c5597272362eeefb04c7bd634d496c6",
    "fig2/transient/d6":
        "1e922088d04cca7182c96e564dfeb73f493684ba26349137dde28de9d8230844",
    "fig2/permanent (rerouted)/d1":
        "8b8f0b140ebbe1429328fbccfcee178a938dee33e0208321ebd84366188ed88a",
    "fig2/permanent (rerouted)/d2":
        "990e4396767e12ab18bfe3bdcdaa11022d90cdc228309372577654998d9d0263",
    "fig2/permanent (rerouted)/d3":
        "4fd81fe401a6a1fcd1a550ed9fce5fc1d9bfa54ca89728dff1a84c6181d8f675",
    "fig2/permanent (rerouted)/d4":
        "7c6b5de73c9399aeb58eed6807165bc73a5c048f90f8234aaade91f6a2782f78",
    "fig2/permanent (rerouted)/d5":
        "1520f750cefa4723e46f4245ddc5089b038517daca398472ebe8df66c355aef1",
    "fig2/permanent (rerouted)/d6":
        "e87b107e87639e2baeff11974b7ce28b9b675cdc66423d876578ed3f1f7faaf0",
    "fig2/trojan (L-Ob)/d1":
        "c4cda3b69e8ec7dc82bd754fb2f49c8c0372e29209560cb6fdbff33ead2fcdc4",
    "fig2/trojan (L-Ob)/d2":
        "c124ee8ec2db0aee59b68e369df3ecaec52674745b7dda754ef0c262bbec2738",
    "fig2/trojan (L-Ob)/d3":
        "516fee587675e6571acbd4549e35921ac5d61b79bcfaa29499ff4dc6835b0e1d",
    "fig2/trojan (L-Ob)/d4":
        "8b6adb48fc623b207d41fd70d4521d980d59d372b50bfa2523f9f66b82b3e074",
    "fig2/trojan (L-Ob)/d5":
        "bad23e8ea5854f34a032fa2750b961023614c73f2aba48f8fe9492c999dbc2f3",
    "fig2/trojan (L-Ob)/d6":
        "d90424264054115bba61fd7d2d2663752f5c41742dba18e1b6a9038d94bb9420",
    "fig2/trojan (no mitigation)/d1":
        "5a9d068c7c1f66d3264ca01afa743f355b7e97d49d8571e7426e54d34cb24899",
    "fig2/trojan (no mitigation)/d2":
        "0c3371e18ef6b76765e86338e258375f6e4ec544d430fd2694fb33633170aff4",
    "fig2/trojan (no mitigation)/d3":
        "e76b01a294d86a630f202fa6fcf1eceb7c626de9db83c547b4ab0f41ea374f51",
    "fig2/trojan (no mitigation)/d4":
        "05edcc492da3224d371a6857b4e4fe5583781c3036ff053bdd59067de3b2a57e",
    "fig2/trojan (no mitigation)/d5":
        "e623d10c17d62358413bf4090f35b35a8df5247b9148be50dd7d6eda61a90397",
    "fig2/trojan (no mitigation)/d6":
        "f8917e8e6a44bb1c35749a7f2693dafab076167d509b3d0efce920ae6b3adf83",
    "distributed":
        "ba60ec0c3a242c61ecd592163f4a2ad90b5e6a9d3debd420241a9316d8b8a052",
    "largescale/mesh16":
        "229414604fa62bcc73e340283a3386b83c4ceb22a2136d6c737a1ba17b7715e5",
    "largescale/torus8":
        "5a44656643cb00f031f010163370e3b742b8921e1a148850bccdb730c64434de",
    "reinstate/recovery":
        "763a286bfb7a86076493c41cd01e00930180c524be2f27b0f524f26f6fd94e5a",
    "planted-deadlock":
        "7b84646c4463f2f0722b34c2d13bf120a1ac046dc58084281f92d87853027d13",
    "express-event":
        "59982d3080409e7de0e4967fa1d1b84f5c7399961dc1ce9c4ef594ea74a0a75a",
}


class TestPinnedHashes:
    """Round-trip tests compare a hash with itself; these compare it
    with a literal, so a codec change cannot move both sides at once."""

    def test_hashes_match_the_literals(self):
        hashes = {
            name: scenario.content_hash()
            for name, scenario in pinned_scenarios().items()
        }
        assert hashes == PINNED_HASHES

    def test_decoded_documents_keep_the_literals(self):
        hashes = {
            name: Scenario.from_json(scenario.to_json()).content_hash()
            for name, scenario in pinned_scenarios().items()
        }
        assert hashes == PINNED_HASHES


class TestRecoveryBackCompat:
    """The recovery-loop fields (``TrojanSpec.disable_at``,
    ``DefenseSpec.probation`` / ``.detector``) are encoded only when
    set, so every scenario from before this layer existed serializes —
    and therefore content-hashes — byte-identically."""

    def pr7_scenario(self) -> Scenario:
        """A scenario using everything *except* the recovery loop."""
        return Scenario(
            name="pre-recovery",
            trojans=trojan_specs([(0, Direction.EAST)],
                                 TargetSpec.for_dest(15)),
            defense=DefenseSpec(
                mitigated=True,
                watchdog=WatchdogConfig(),
                containment=ContainmentConfig(),
            ),
            duration=400,
            seed=11,
        )

    def test_unset_fields_never_reach_the_wire(self):
        data = json.loads(self.pr7_scenario().to_json())
        assert "probation" not in data["defense"]
        assert "detector" not in data["defense"]
        assert all("disable_at" not in t for t in data["trojans"])

    def test_pre_recovery_documents_still_decode(self):
        data = json.loads(self.pr7_scenario().to_json())
        s = Scenario.from_dict(data)
        assert s.defense.probation is None
        assert s.defense.detector is None
        assert s.trojans[0].disable_at is None

    def test_hash_unchanged_by_the_new_fields_existing(self):
        # the canonical JSON is the hash input: no new keys on the
        # unset path means the hash is the pre-recovery hash
        s = self.pr7_scenario()
        assert Scenario.from_json(s.to_json()).content_hash() == \
            s.content_hash()

    def test_recovery_fields_are_part_of_identity(self):
        s = self.pr7_scenario()
        probed = dataclasses.replace(
            s, defense=dataclasses.replace(
                s.defense, probation=ProbationConfig()
            )
        )
        detected = dataclasses.replace(
            s, defense=dataclasses.replace(
                s.defense, detector=DetectConfig()
            )
        )
        hashes = {s.content_hash(), probed.content_hash(),
                  detected.content_hash()}
        assert len(hashes) == 3

    def test_disable_at_must_follow_enable_at(self):
        with pytest.raises(ValueError):
            TrojanSpec(link=(0, Direction.EAST),
                       target=TargetSpec.for_dest(15),
                       enable_at=200, disable_at=100)


class TestTopologyBackCompat:
    """The topology-layer fields (``NoCConfig.topology`` /
    ``.express_interval``, ``DefenseSpec.localizer``) are encoded only
    when set, so every scenario from before the topology layer existed
    serializes — and therefore content-hashes — byte-identically."""

    def pr8_scenario(self) -> Scenario:
        """A scenario using everything *except* the topology layer."""
        return Scenario(
            name="pre-topology",
            trojans=trojan_specs([(0, Direction.EAST)],
                                 TargetSpec.for_dest(15)),
            defense=DefenseSpec(
                mitigated=True,
                watchdog=WatchdogConfig(),
                containment=ContainmentConfig(),
                detector=DetectConfig(),
            ),
            duration=400,
            seed=11,
        )

    def test_unset_fields_never_reach_the_wire(self):
        data = json.loads(self.pr8_scenario().to_json())
        assert "topology" not in data["cfg"]
        assert "express_interval" not in data["cfg"]
        assert "localizer" not in data["defense"]

    def test_pre_topology_documents_still_decode(self):
        data = json.loads(self.pr8_scenario().to_json())
        # a pre-PR9 encoder never wrote the new keys at all; decoding
        # such a document must produce the mesh defaults
        for key in ("topology", "express_interval"):
            assert key not in data["cfg"]
        s = Scenario.from_dict(data)
        assert s.cfg.topology == "mesh"
        assert s.cfg.express_interval == 0
        assert s.defense.localizer is None

    def test_hash_unchanged_by_the_new_fields_existing(self):
        s = self.pr8_scenario()
        assert Scenario.from_json(s.to_json()).content_hash() == \
            s.content_hash()

    def test_topology_fields_are_part_of_identity(self):
        s = self.pr8_scenario()
        torus = dataclasses.replace(
            s, cfg=dataclasses.replace(s.cfg, topology="torus")
        )
        express = dataclasses.replace(
            s, cfg=dataclasses.replace(s.cfg, express_interval=2)
        )
        localized = dataclasses.replace(
            s, defense=dataclasses.replace(
                s.defense, localizer=LocalizeConfig()
            )
        )
        hashes = {s.content_hash(), torus.content_hash(),
                  express.content_hash(), localized.content_hash()}
        assert len(hashes) == 4

    def test_torus_scenario_round_trips(self):
        s = Scenario(
            name="torus",
            cfg=dataclasses.replace(PAPER_CONFIG, topology="torus"),
            defense=DefenseSpec(
                watchdog=WatchdogConfig(),
                containment=ContainmentConfig(),
                detector=DetectConfig(),
                localizer=LocalizeConfig(cluster_radius=1),
            ),
            duration=300,
            seed=5,
        )
        decoded = Scenario.from_json(s.to_json())
        assert decoded == s
        assert decoded.cfg.topology == "torus"
        assert decoded.defense.localizer == LocalizeConfig(cluster_radius=1)

    def test_localizer_requires_detector(self):
        from repro.sim.engine import Simulation

        bad = Scenario(
            name="no-detector",
            defense=DefenseSpec(
                watchdog=WatchdogConfig(),
                containment=ContainmentConfig(),
                localizer=LocalizeConfig(),
            ),
            duration=100,
        )
        with pytest.raises(ValueError, match="detector"):
            Simulation(bad)


#: marks a key the damage removes instead of overwriting
DROP = object()


class TestDecodeErrors:
    """Damaged scenario dicts fail loudly, naming the offending key."""

    def decode_traffic(self, spec: dict):
        data = json.loads(rich_scenario().to_json())
        data["traffic"] = [spec]
        return Scenario.from_dict(data)

    def test_unknown_traffic_kind_names_the_kind(self):
        with pytest.raises(ScenarioDecodeError) as excinfo:
            self.decode_traffic({"kind": "psychic"})
        assert "unknown kind 'psychic'" in str(excinfo.value)
        assert "synthetic" in str(excinfo.value)  # known kinds listed

    def test_missing_kind_names_the_key(self):
        with pytest.raises(ScenarioDecodeError, match="missing required key 'kind'"):
            self.decode_traffic({"injection_rate": 0.1})

    def test_extra_traffic_key_is_named(self):
        with pytest.raises(ScenarioDecodeError) as excinfo:
            self.decode_traffic(
                {"kind": "synthetic", "injection_rate": 0.1, "warp": 9}
            )
        assert "'warp'" in str(excinfo.value)

    def test_missing_top_level_key_is_named(self):
        data = json.loads(rich_scenario().to_json())
        del data["seed"]
        with pytest.raises(ScenarioDecodeError, match="missing required key 'seed'"):
            Scenario.from_dict(data)

    def test_extra_cfg_key_is_named(self):
        data = json.loads(rich_scenario().to_json())
        data["cfg"]["hyperdrive"] = True
        with pytest.raises(ScenarioDecodeError) as excinfo:
            Scenario.from_dict(data)
        assert "'hyperdrive'" in str(excinfo.value)

    def test_unsupported_format_is_rejected(self):
        data = json.loads(rich_scenario().to_json())
        data["format"] = 999
        with pytest.raises(ScenarioDecodeError, match="format 999 not supported"):
            Scenario.from_dict(data)

    def test_decode_error_is_a_value_error(self):
        # callers that guarded with ValueError keep working
        assert issubclass(ScenarioDecodeError, ValueError)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            pytest.param(
                ("trojans", 0, "config"), DROP,
                "scenario.trojans[0]: missing required key 'config'",
                id="trojan-without-config",
            ),
            pytest.param(
                ("defense", "watchdog", "warp"), 9,
                "scenario.defense.watchdog: unexpected key(s) 'warp'",
                id="unknown-watchdog-key",
            ),
            pytest.param(
                ("trojans", 0, "target", "warp"), 9,
                "scenario.trojans[0].target: unexpected key(s) 'warp'",
                id="unknown-target-key",
            ),
            pytest.param(
                ("cfg", "num_vcs"), DROP,
                "scenario.cfg: missing required key 'num_vcs'",
                id="cfg-without-num-vcs",
            ),
            pytest.param(
                ("defense", "mitigation", "method_sequence", 0, 0),
                "TELEPORT",
                "scenario.defense.mitigation.method_sequence[0][0]: "
                "unknown ObMethod 'TELEPORT'",
                id="unknown-ob-method",
            ),
            pytest.param(
                ("defense", "rerouted_links", 0), [0, "UP"],
                "scenario.defense.rerouted_links[0][1]: "
                "unknown Direction 'UP'",
                id="unknown-direction",
            ),
            pytest.param(
                ("trojans", 0, "link"), [0, "EAST", 9],
                "scenario.trojans[0].link: expected 2 items, got 3",
                id="link-with-extra-item",
            ),
            pytest.param(
                ("trojans", 0, "disable_at"), 50,
                "scenario.trojans[0]: disable_at must come after enable_at",
                id="spec-rejects-values",
            ),
        ],
    )
    def test_damage_at_any_depth_names_the_path(self, keys, value, message):
        data = json.loads(rich_scenario().to_json())
        *parents, last = keys
        node = data
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
        with pytest.raises(ScenarioDecodeError) as excinfo:
            Scenario.from_dict(data)
        assert str(excinfo.value) == message
