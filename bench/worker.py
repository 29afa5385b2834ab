"""One benchmark operation in a fresh interpreter.

Usage::

    python3 bench/worker.py WORKLOAD SEED {timed,traced,probe} [--smoke]

``bench/run.py`` starts one of these per operation and reads the JSON
record this script prints as its last line of output.  A *timed*
operation runs with only the cheap wrappers installed; a *traced* one
adds the phase profiler and call counters; a *probe* counts interpreter
calls over one window of one simulation and stops there.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def operate(name: str, seed: int, mode: str, smoke: bool) -> dict:
    from ledger import Ledger, ProbeDone, instrument, per_layer
    from workloads import FIGURES, WORKLOADS

    workload = WORKLOADS[name]
    t0 = perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    import_s = perf_counter() - t0

    inputs = workload.inputs(seed, smoke)
    ledger = Ledger(
        traced=mode == "traced",
        probe=workload.probe(smoke) if mode == "probe" else None,
    )
    output = None
    with instrument(ledger):
        t1 = perf_counter()
        try:
            output = workload.run(inputs, ledger)
        except ProbeDone:
            pass
        op_s = perf_counter() - t1 - ledger.bookkeeping_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if mode == "probe":
        if ledger.probe_result is None:
            return {"failures": [f"probe {ledger.probe[0]} never ran"]}
        return {"failures": [], "probe": ledger.probe_result}

    record_digest, outcomes, failures = workload.check(output, ledger, smoke)
    failures += ledger.failures
    hops = ledger.total("flit_hops")
    record = {
        "failures": failures,
        "digest": record_digest,
        "outcomes": outcomes,
        "metrics": {
            "wall_s": import_s + op_s,
            "setup_s": import_s + ledger.init_s,
            "sim_cycles_per_s": ledger.cycles / ledger.step_s,
            "flit_hops_per_s": hops / ledger.step_s,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if ledger.traced:
        record["per_layer"] = per_layer(ledger, import_s, op_s, FIGURES)
        record["spans"] = {
            "import_s": import_s,
            "op_s": op_s,
            "init_s": ledger.init_s,
            "step_s": ledger.step_s,
            "mitigated_build_s": ledger.mitigated_build_s,
            "experiments_s": ledger.walls,
            "bookkeeping_s": ledger.bookkeeping_s,
            "simulations": len(ledger.records),
            "cycles": ledger.cycles,
            "profiler": ledger.profiler.to_jsonable(),
        }
    return record


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    try:
        record = operate(name, seed, mode, "--smoke" in argv[3:])
    except Exception:
        record = {"failures": [traceback.format_exc()]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
