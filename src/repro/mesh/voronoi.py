"""MPAS-style quasi-uniform Voronoi meshes and dual triangulations.

MPAS meshes are centroidal Voronoi tessellations; MALI's FE mesh is the
*triangulation dual* to the Voronoi mesh, extruded vertically.  We build
the generator set from a jittered hexagonal lattice restricted to the ice
mask, improve it with a few Lloyd iterations, and expose both the Voronoi
cell adjacency (MPAS-style ``cellsOnCell``) and the dual Delaunay
triangulation as a :class:`~repro.mesh.planar.Footprint2D`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.planar import Footprint2D, _boundary_edges_from_elems

__all__ = ["VoronoiMesh", "mpas_voronoi_mesh", "triangle_footprint_from_voronoi"]


@dataclass
class VoronoiMesh:
    """Quasi-uniform Voronoi mesh plus its dual triangulation.

    ``cells_on_cell`` is stored CSR-style (``coc_offsets`` into
    ``coc_data``), mirroring MPAS's variable-degree adjacency.
    """

    points: np.ndarray
    triangles: np.ndarray
    coc_offsets: np.ndarray
    coc_data: np.ndarray
    spacing: float

    @property
    def num_cells(self) -> int:
        return len(self.points)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def neighbors(self, cell: int) -> np.ndarray:
        """MPAS ``cellsOnCell`` for one cell."""
        return self.coc_data[self.coc_offsets[cell] : self.coc_offsets[cell + 1]]

    def degree(self) -> np.ndarray:
        return np.diff(self.coc_offsets)

    def cell_areas(self) -> np.ndarray:
        """Voronoi region areas; boundary (unbounded) cells get spacing^2."""
        from scipy.spatial import Voronoi

        vor = Voronoi(self.points)
        areas = np.full(self.num_cells, self.spacing**2)
        for i, reg_idx in enumerate(vor.point_region):
            region = vor.regions[reg_idx]
            if not region or -1 in region:
                continue
            poly = vor.vertices[region]
            x, y = poly[:, 0], poly[:, 1]
            areas[i] = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        return areas


def _hex_lattice(lx: float, ly: float, spacing: float) -> np.ndarray:
    """Hexagonal lattice points covering ``[0, lx] x [0, ly]``."""
    dy = spacing * np.sqrt(3.0) / 2.0
    rows = int(np.ceil(ly / dy)) + 1
    cols = int(np.ceil(lx / spacing)) + 2
    pts = []
    for r in range(rows):
        xoff = 0.5 * spacing if r % 2 else 0.0
        xs = xoff + spacing * np.arange(cols)
        ys = np.full(cols, r * dy)
        pts.append(np.stack([xs, ys], axis=1))
    pts = np.concatenate(pts, axis=0)
    keep = (pts[:, 0] <= lx) & (pts[:, 1] <= ly)
    return pts[keep]


def _lloyd_step(points: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Move interior generators to their (finite) Voronoi-region centroids."""
    from scipy.spatial import Voronoi

    vor = Voronoi(points)
    out = points.copy()
    for i in np.flatnonzero(interior):
        region = vor.regions[vor.point_region[i]]
        if not region or -1 in region:
            continue
        poly = vor.vertices[region]
        x, y = poly[:, 0], poly[:, 1]
        cross = x * np.roll(y, -1) - np.roll(x, -1) * y
        a = 0.5 * np.sum(cross)
        if abs(a) < 1.0e-12:
            continue
        cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
        cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
        out[i] = (cx, cy)
    return out


def _adjacency_from_triangles(n: int, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR cell-to-cell adjacency from shared Delaunay edges."""
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )
    edges.sort(axis=1)
    edges = np.unique(edges, axis=0)
    both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    counts = np.bincount(both[:, 0], minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return offsets, both[:, 1].astype(np.int64)


def mpas_voronoi_mesh(
    mask_fn,
    lx: float,
    ly: float,
    spacing: float,
    lloyd_iters: int = 2,
    jitter: float = 0.12,
    seed: int = 7,
) -> VoronoiMesh:
    """Quasi-uniform Voronoi mesh of the masked region.

    Parameters
    ----------
    mask_fn:
        Vectorized predicate ``mask_fn(x, y) -> bool`` selecting iced area.
    spacing:
        Target cell spacing (the "16 km" of the paper's test).
    """
    # imported here and in the two Voronoi users: only ``footprint=
    # "voronoi"`` builds pay scipy.spatial's 0.15 s and 16 MB
    from scipy.spatial import Delaunay

    pts = _hex_lattice(lx, ly, spacing)
    keep = np.asarray(mask_fn(pts[:, 0], pts[:, 1]), dtype=bool)
    pts = pts[keep]
    if len(pts) < 8:
        raise ValueError("mask too small for the requested spacing")
    rng = np.random.default_rng(seed)
    pts = pts + rng.uniform(-jitter, jitter, size=pts.shape) * spacing

    for _ in range(max(0, lloyd_iters)):
        tri = Delaunay(pts)
        on_hull = np.zeros(len(pts), dtype=bool)
        on_hull[np.unique(tri.convex_hull)] = True
        pts = _lloyd_step(pts, ~on_hull)

    tri = Delaunay(pts)
    triangles = tri.simplices.astype(np.int64)
    # drop sliver triangles on the concave parts of the hull
    p = pts[triangles]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    good = np.abs(area2) > 0.05 * spacing**2
    triangles = triangles[good]
    # enforce CCW orientation
    flip = area2[good] < 0.0
    triangles[flip] = triangles[flip][:, ::-1]

    offsets, data = _adjacency_from_triangles(len(pts), triangles)
    return VoronoiMesh(pts, triangles, offsets, data, spacing)


def triangle_footprint_from_voronoi(vm: VoronoiMesh) -> Footprint2D:
    """The dual triangulation as an FE footprint (compacted node ids)."""
    used = np.unique(vm.triangles)
    remap = -np.ones(vm.num_cells, dtype=np.int64)
    remap[used] = np.arange(len(used))
    elems = remap[vm.triangles]
    coords = vm.points[used]
    bedges = _boundary_edges_from_elems(elems, 3)
    return Footprint2D(coords, elems, "tri3", bedges)
