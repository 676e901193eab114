"""Floorplanning substrate: hard blocks placed inside a fixed die.

The paper's experiments derive floorplans by running Cong et al.'s BBP code
(Monte-Carlo simulated annealing) and discarding the inserted buffer blocks.
Here :func:`repro.benchmarks.generator.generate_benchmark` fills that role
by shelf packing; this package holds the :class:`Block` and
:class:`Floorplan` it places.
"""

from repro.floorplan.block import Block
from repro.floorplan.floorplan import Floorplan

__all__ = [
    "Block",
    "Floorplan",
]
