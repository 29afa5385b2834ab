"""Analytic area/power/timing substrate (Synopsys DC + TSMC 40 nm
substitute — see DESIGN.md §2 and :mod:`repro.power.gates`)."""

from repro._lazy import facade

_EXPORTS = {
    "EnergyReport": "energy",
    "amplification": "energy",
    "energy_report": "energy",
    "NoCBudget": "blocks",
    "RouterBreakdown": "blocks",
    "buffer_budget": "blocks",
    "crossbar_budget": "blocks",
    "global_wire_area": "blocks",
    "lob_budget": "blocks",
    "noc_budget": "blocks",
    "router_breakdown": "blocks",
    "tasp_budget": "blocks",
    "threat_detector_budget": "blocks",
    "Budget": "gates",
    "Cell": "gates",
    "CLOCK_GHZ": "gates",
    "CLOCK_PERIOD_NS": "gates",
    "GateLibrary": "gates",
    "LIB": "gates",
    "SUPPLY_V": "gates",
    "Fig8Report": "noc_power",
    "MitigationRow": "noc_power",
    "PAPER_TABLE1": "noc_power",
    "PAPER_TARGETS": "noc_power",
    "VariantRow": "noc_power",
    "fig8_report": "noc_power",
    "table1_rows": "noc_power",
    "table2_rows": "noc_power",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
