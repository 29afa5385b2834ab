"""Named scenarios for ``python -m repro.serve run/replay --named``.

The canonical experiment runs are registered here so ``--named fig11``
reproduces exactly what the experiment module would simulate — same
content hash — and a replay can rebuild the classifier chain the live
run used.

Builders are looked up lazily (building fig11 traces a warm-up run to
pick the hot link), and every builder is deterministic: the same name
always yields the same :meth:`~repro.sim.scenario.Scenario.content_hash`.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.scenario import Scenario


def _fig11() -> Scenario:
    from repro.experiments.fig11_backpressure import build_scenario

    return build_scenario()


def _fig11_clean() -> Scenario:
    from repro.experiments.fig11_backpressure import build_scenario

    return build_scenario(with_trojan=False)


def _distributed_quick() -> Scenario:
    from repro.experiments.distributed import build_scenario

    # pinned to the quick (N=3, 4000-cycle) CI case regardless of the
    # REPRO_DISTRIBUTED_QUICK env var
    return build_scenario(n=3, duration=4000, attacked=True)


NAMED_SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "fig11": _fig11,
    "fig11-clean": _fig11_clean,
    "distributed-quick": _distributed_quick,
}


def named_scenario(name: str) -> Scenario:
    """Build the registered scenario, or raise ``KeyError`` with the
    available names in the message."""
    builder = NAMED_SCENARIOS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {name!r} "
            f"(named scenarios: {sorted(NAMED_SCENARIOS)})"
        )
    return builder()
