"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...) -> <ResultDataclass>`` and
``format_result(result) -> str``; ``python -m repro.experiments.runner``
drives them from the command line, and ``benchmarks/`` wraps each in a
pytest-benchmark target.

| module              | reproduces                                     |
|---------------------|------------------------------------------------|
| fig1_traffic        | Fig. 1  traffic distributions                  |
| fig2_faults         | Fig. 2  fault-type latency signatures          |
| fig8_overhead       | Fig. 8  TASP power/area pies                   |
| table1_tasp         | Table I / Fig. 9 TASP variants                 |
| table2_mitigation   | Table II mitigation overhead                   |
| fig10_speedup       | Fig. 10 L-Ob vs rerouting                      |
| fig11_backpressure  | Fig. 11 DoS back-pressure build-up             |
| fig12_qos           | Fig. 12 TDM containment vs s2s mitigation      |
| ablations           | §III/§IV design-choice sweeps                  |
| flood_routing       | §III-A flood DoS vs routing; flood vs trojan   |
| load_curve          | load-latency validation; xy vs adaptive knees  |
"""

from repro._lazy import facade

_EXPORTS = {
    "ablations": "ablations",
    "common": "common",
    "export": "export",
    "flood_routing": "flood_routing",
    "fig1_traffic": "fig1_traffic",
    "fig2_faults": "fig2_faults",
    "fig8_overhead": "fig8_overhead",
    "fig10_speedup": "fig10_speedup",
    "fig11_backpressure": "fig11_backpressure",
    "fig12_qos": "fig12_qos",
    "load_curve": "load_curve",
    "reinstate": "reinstate",
    "table1_tasp": "table1_tasp",
    "table2_mitigation": "table2_mitigation",
    "viz": "viz",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
