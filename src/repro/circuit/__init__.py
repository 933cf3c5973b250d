"""Gate-level substrate for the offline aging-estimation flow (Fig. 5).

The paper builds its 3D aging tables from a cell library, synthesized
critical paths, gate-level signal probabilities, and SPICE-calibrated
per-element aging.  This package provides the equivalents:

* a synthetic standard-cell library (:mod:`cells`),
* random-but-reproducible combinational netlists and the "top-x %
  critical paths" of a synthesized core (:mod:`synth`),
* topological signal-probability propagation, which yields each logic
  element's PMOS stress duty cycle (:mod:`signalprob`),
* alpha-power-law delay calculation under Vth shift (:mod:`delay`).
"""

from repro.circuit.cells import Cell, CellLibrary, default_library
from repro.circuit.delay import alpha_power_delay_factor
from repro.circuit.netlist import Gate, Netlist
from repro.circuit.signalprob import (
    gate_stress_duties,
    propagate_signal_probabilities,
)
from repro.circuit.synth import CriticalPath, SynthesizedCore, synthesize_core

__all__ = [
    "Cell",
    "CellLibrary",
    "CriticalPath",
    "Gate",
    "Netlist",
    "SynthesizedCore",
    "alpha_power_delay_factor",
    "default_library",
    "gate_stress_duties",
    "propagate_signal_probabilities",
    "synthesize_core",
]
