"""Manhattan geometry substrate for the PAO reproduction.

All coordinates are integers in database units (DBU); by convention
1000 DBU = 1 micron, matching DEF.  Every shape in the library is
rectilinear: points, axis-aligned rectangles, and rectilinear polygons
represented as unions of rectangles.

The package provides:

* :class:`Point` -- immutable 2-D integer point.
* :class:`Interval` -- closed 1-D integer interval.
* :class:`Rect` -- axis-aligned rectangle with the full set of
  intersection / bloat / distance predicates used by the DRC engine.
* :class:`RectilinearPolygon` / :func:`merge_rects` /
  :func:`union_area` / :func:`boundary_edges` -- union-of-rects
  polygon with area and boundary extraction (needed for min-area and
  min-step checks).
* :func:`maximal_rectangles` -- all maximal rectangles of a rectilinear
  polygon (needed for shape-center coordinate generation, paper Sec. II-C).
* :class:`Orientation` / :class:`Transform` -- DEF placement orientations
  (R0/R90/R180/R270/MX/MY/MX90/MY90) applied to points and rects.
* :class:`GridIndex` -- bucketed spatial index used for region queries.
"""

from repro.geom.point import Point, manhattan_distance
from repro.geom.interval import Interval
from repro.geom.rect import Rect
from repro.geom.polygon import (
    RectilinearPolygon,
    boundary_edges,
    merge_rects,
    union_area,
)
from repro.geom.maxrect import maximal_rectangles
from repro.geom.transform import Orientation, Transform
from repro.geom.spatial import GridIndex

__all__ = [
    "Point",
    "manhattan_distance",
    "Interval",
    "Rect",
    "RectilinearPolygon",
    "merge_rects",
    "boundary_edges",
    "union_area",
    "maximal_rectangles",
    "Orientation",
    "Transform",
    "GridIndex",
]
