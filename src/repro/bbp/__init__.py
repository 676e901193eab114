"""Buffer-block planning baseline (Cong/Kong/Pan's BBP/FR, reimplemented).

The Table V comparison needs the *methodology* the paper argues against:
buffers restricted to the free space between macro blocks. This package
implements a feasible-region buffer-block planner for two-pin nets:

1. every multipin net is star-decomposed into two-pin nets (as in [8]);
2. the number of buffers per net follows the same distance rule RABID
   uses, so the comparison isolates *where* buffers may go;
3. each buffer's ideal location is the even split point of the source-sink
   line; its feasible region is a box around the ideal point;
4. the buffer is placed at the free-space (outside every macro) point
   nearest the ideal location, searching the feasible region first and
   growing outward when the region is fully blocked — which is exactly how
   buffers end up *clustered into blocks* in the channels;
5. nets are routed through their buffers with L-shapes, with no congestion
   awareness (BBP/FR routes first, measures congestion later).
"""

from repro.bbp.feasible_region import FeasibleRegion, ideal_buffer_points, feasible_region_for
from repro.bbp.planner import BbpConfig, BbpPlanner, BbpResult, max_tile_area_pct

__all__ = [
    "FeasibleRegion",
    "ideal_buffer_points",
    "feasible_region_for",
    "BbpConfig",
    "BbpPlanner",
    "BbpResult",
    "max_tile_area_pct",
]
