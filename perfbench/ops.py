"""One operation of each in-process workload, as the program's user calls it.

Functions are looked up on the ``epower`` module at call time, so the
tracer's wrappers are seen.  Run as a script, this module is the fresh
interpreter behind ``setup_s``: it imports ``epower``, runs the one
operation given as JSON and exits.

    python perfbench/ops.py gate_sweep '{"x": 0.6, "y": 0.3, "family": null}'
"""

from __future__ import annotations

import json
import sys

import epower as ep


def gate_sweep(op: dict) -> list:
    value = ep.entangling_power_c2eqc3(op["x"], op["y"]).value
    family = None
    if op["family"] == "example1":
        family = ep.example1_power(op["x"]).value
    elif op["family"] == "example2":
        family = ep.example2_power(op["y"]).value
    return [value, family]


def phase_gates(op: dict) -> list:
    res = ep.entangling_power_phase_gate(ep.PhaseGateSpec(tuple(op["thetas"])))
    return [res.value, res.diagnostics.get("case")]


def oracle_certify(op: dict) -> list:
    import numpy as np

    gate = np.array(op["re"]) + 1j * np.array(op["im"])
    res = ep.brute_force_power(gate, ep.SearchConfig())
    return [res.value, res.diagnostics["n_evaluations"]]


IN_PROCESS = {"gate_sweep": gate_sweep, "phase_gates": phase_gates,
              "oracle_certify": oracle_certify}


if __name__ == "__main__":
    IN_PROCESS[sys.argv[1]](json.loads(sys.argv[2]))
