"""Fast sanity tests of the experiment harness (small parameters; the
full-size runs live in benchmarks/), and the paper's headline facts as
named regression asserts at the experiments' defaults."""

import pytest

from repro.experiments import (
    ablations,
    fig1_traffic,
    fig2_faults,
    fig8_overhead,
    fig10_speedup,
    fig11_backpressure,
    fig12_qos,
    table1_tasp,
    table2_mitigation,
)
from repro.experiments.common import (
    format_table,
    make_app_trace,
    pick_infected_links,
    xy_link_loads,
)
from repro.noc import PAPER_CONFIG
from repro.traffic import PROFILES


class TestCommon:
    def test_xy_link_loads_conserve_flits(self):
        trace = make_app_trace(PAPER_CONFIG, PROFILES["blackscholes"], 200)
        loads = xy_link_loads(PAPER_CONFIG, trace)
        # total traversals = sum over packets of hops * flits
        expected = sum(
            PAPER_CONFIG.hop_distance(
                PAPER_CONFIG.router_of_core(p.src_core),
                PAPER_CONFIG.router_of_core(p.dst_core),
            )
            * p.num_flits()
            for p in trace.packets
        )
        assert sum(loads.values()) == expected

    def test_pick_infected_links_routable_and_distinct(self):
        trace = make_app_trace(PAPER_CONFIG, PROFILES["ferret"], 200)
        links = pick_infected_links(PAPER_CONFIG, trace, 7, seed=3)
        assert len(set(links)) == 7
        from repro.baselines import updown_table

        updown_table(PAPER_CONFIG, links)  # must not raise

    def test_pick_zero_links(self):
        trace = make_app_trace(PAPER_CONFIG, PROFILES["fft"], 100)
        assert pick_infected_links(PAPER_CONFIG, trace, 0) == []

    def test_format_table(self):
        out = format_table(["a", "b"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "333" in lines[3]


class TestFig1:
    def test_runs_and_formats(self):
        result = fig1_traffic.run(duration=200)
        text = fig1_traffic.format_result(result)
        assert "router-to-router" in text
        assert result.primary_router == 0
        assert abs(sum(result.link_share.values()) - 1.0) < 1e-9


class TestFig2:
    def test_small_run_shapes(self):
        result = fig2_faults.run(packets=4)
        clean = result.curves["clean"]
        assert clean[6] > clean[1]
        assert result.curves["trojan (no mitigation)"][3] is None
        assert result.curves["trojan (L-Ob)"][3] is not None
        assert "stall" in fig2_faults.format_result(result)


class TestFig8AndTables:
    def test_fig8(self):
        report = fig8_overhead.run()
        assert "Router dynamic power" in fig8_overhead.format_result(report)

    def test_table1(self):
        result = table1_tasp.run()
        assert len(result.rows) == 6
        assert "Table I" in table1_tasp.format_result(result)

    def test_table2(self):
        result = table2_mitigation.run()
        assert result.total.pct_router_area < 5
        assert "Table II" in table2_mitigation.format_result(result)


class TestFig10:
    def test_single_app_small(self):
        result = fig10_speedup.run(
            apps=("blackscholes",), fractions=(0.0, 0.10), duration=250
        )
        points = {p.infected_fraction: p for p in result.points}
        assert points[0.0].speedup == 1.0
        assert points[0.10].speedup > 1.0
        assert "speedup" in fig10_speedup.format_result(result)


class TestFig11:
    def test_small_run(self):
        result = fig11_backpressure.run(
            warmup=400, window=500, rate_scale=3.5, sample_every=25
        )
        assert result.trojan_triggers > 0
        assert (
            result.headline["peak_blocked_routers"]
            > result.headline["peak_blocked_routers_clean"]
        )
        assert "back-pressure" in fig11_backpressure.format_result(result)


class TestFig12:
    def test_small_run(self):
        result = fig12_qos.run(warmup=400, window=600, sample_every=50)
        h = result.headline
        assert h["tdm_victim_domain_completions"] < h[
            "tdm_victim_domain_baseline"
        ]
        assert h["tdm_clean_domain_completions"] >= 0.9 * h[
            "tdm_clean_domain_baseline"
        ]
        assert "QoS containment" in fig12_qos.format_result(result)


class TestPaperHeadlines:
    """The denial of service runs through SECDED's detected-but-not-
    corrected double flip and the retransmission it forces, so any
    change to the receive path must keep these at the defaults."""

    def test_tasp_blocks_half_the_unmitigated_mesh_in_the_window(self):
        result = fig11_backpressure.run()
        h = result.headline
        half = PAPER_CONFIG.num_routers // 2
        assert result.trojan_triggers > 0
        # relative to the trojan's enable, inside the default window
        assert h["cycles_to_half_routers_blocked"] is not None
        assert h["cycles_to_half_routers_blocked"] < 1500
        assert h["peak_blocked_routers_clean"] < half

    def test_tdm_contains_the_attack_and_lob_mitigates_it(self):
        h = fig12_qos.run().headline
        victim_baseline = h["tdm_victim_domain_baseline"]
        assert h["tdm_victim_domain_completions"] <= 0.6 * victim_baseline
        assert h["tdm_clean_domain_completions"] >= 0.95 * h[
            "tdm_clean_domain_baseline"
        ]
        assert h["mitigated_victim_completions"] >= 0.95 * victim_baseline
        assert h["mitigated_blocked_cores"] == 0

    def test_lob_keeps_the_infected_link_at_a_one_to_three_cycle_penalty(
        self,
    ):
        curves = fig2_faults.run().curves
        distances = sorted(fig2_faults.DISTANCE_DESTS)
        # unmitigated, the trojan stalls the flow at every distance...
        assert all(
            curves["trojan (no mitigation)"][d] is None for d in distances
        )
        # ...while L-Ob keeps the infected link in use, a few cycles
        # slower than the clean network
        for d in distances:
            lob = curves["trojan (L-Ob)"][d]
            assert lob is not None
            assert 1 <= lob - curves["clean"][d] <= 3


class TestAblations:
    def test_target_width_small(self):
        points = ablations.target_width_ablation(samples=2000)
        by = {p.kind: p for p in points}
        assert by["VC"].accidental_trigger_rate > by[
            "Dest"
        ].accidental_trigger_rate

    def test_payload_states_small(self):
        points = ablations.payload_state_ablation(state_counts=(1, 4))
        assert points[1].distinct_syndromes >= points[0].distinct_syndromes

    def test_retrans_depth_small(self):
        points = ablations.retrans_depth_ablation(depths=(2, 8),
                                                  max_cycles=500)
        assert points[0].cycles_to_port_stall <= points[1].cycles_to_port_stall

    def test_methods_small(self):
        points = ablations.method_effectiveness_ablation(
            packets=4, max_cycles=3000
        )
        by = {(p.method, p.granularity): p.effective for p in points}
        assert by[("invert", "full")]
        assert not by[("reorder", "full")]


class TestRunner:
    def test_list_command(self, capsys):
        from repro.experiments.runner import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "table2" in out

    def test_unknown_experiment(self):
        from repro.experiments.runner import main

        assert main(["nope"]) == 2

    def test_run_light_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out
