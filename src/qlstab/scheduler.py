"""Lattice-based parallelization of commuting neighborhood circuits.

Neighborhood structures generated from a unit cell of templates are
partitioned into layers of pairwise-disjoint neighborhoods; the generic coset
construction gives depth at most |templates| * diam^m, and the specialized
two-dimensional cross scheme achieves depth five.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import MultipartiteSpace, NeighborhoodStructure


@dataclass(frozen=True)
class LatticeSpec:
    """Finite patch of a lattice built from a unit cell of sites and templates.

    templates: one neighborhood per entry, each a set of (cell_offset, site)
    pairs; cell offsets are m-vectors of integers.
    """

    dimension: int
    widths: tuple[int, ...]
    cell_sites: int
    templates: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    boundary: str = "periodic"  # "periodic" | "open"
    site_dim: int = 2

    def __post_init__(self):
        if len(self.widths) != self.dimension:
            raise ValueError("one width per axis required")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if self.boundary not in ("periodic", "open"):
            raise ValueError("boundary must be 'periodic' or 'open'")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.widths))

    @property
    def n_sites(self) -> int:
        return self.n_cells * self.cell_sites

    def cell_index(self, cell) -> int:
        idx = 0
        for w, x in zip(self.widths, cell):
            idx = idx * w + (x % w)
        return idx

    def site_index(self, cell, s: int) -> int:
        return self.cell_index(cell) * self.cell_sites + s

    def cells(self):
        return itertools.product(*(range(w) for w in self.widths))

    def translate_site(self, cell, offset, s):
        """Site reached from `cell` by `offset`; None if it leaves an open patch."""
        target = tuple(c + o for c, o in zip(cell, offset))
        if self.boundary == "open":
            if any(x < 0 or x >= w for x, w in zip(target, self.widths)):
                return None
        return self.site_index(target, s)


@dataclass(frozen=True)
class Instantiation:
    space: MultipartiteSpace
    neighborhoods: NeighborhoodStructure
    origin: tuple[tuple[int, tuple[int, ...]], ...]  # per neighborhood: (template, cell)


def instantiate(lattice: LatticeSpec) -> Instantiation:
    """All translated copies of the templates on the finite patch."""
    nbhds = []
    origin = []
    seen = set()
    for cell in lattice.cells():
        for tmpl_idx, template in enumerate(lattice.templates):
            sites = _template_sites(lattice, template, cell)
            if sites is None:
                continue
            key = tuple(sorted(sites))
            if key in seen:
                continue
            seen.add(key)
            nbhds.append(key)
            origin.append((tmpl_idx, tuple(cell)))
    return Instantiation(
        space=MultipartiteSpace([lattice.site_dim] * lattice.n_sites),
        neighborhoods=NeighborhoodStructure(nbhds),
        origin=tuple(origin),
    )


@dataclass(frozen=True)
class Layering:
    layers: tuple[tuple[int, ...], ...]  # lists of neighborhood indices

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def size(self) -> int:
        return sum(len(l) for l in self.layers)


def _template_sites(lattice: LatticeSpec, template, cell):
    """The sites of `template` translated to `cell`, or None when one of them
    falls off the patch."""
    out = []
    for offset, s in template:
        idx = lattice.translate_site(cell, offset, s)
        if idx is None:
            return None
        out.append(idx)
    return set(out)


def template_diameter(lattice: LatticeSpec) -> int:
    """Minimal per-axis translation count making the template set disjoint
    from itself; the maximum over axes is taken.

    The diameter is a property of the infinite lattice, so it is probed on a
    large open patch regardless of the requested boundary.
    """
    ext = _extent(lattice)
    probe = LatticeSpec(
        dimension=lattice.dimension,
        widths=tuple(6 * ext + 8 for _ in lattice.widths),
        cell_sites=lattice.cell_sites,
        templates=lattice.templates,
        boundary="open",
        site_dim=lattice.site_dim,
    )
    base_cell = tuple(2 * ext + 2 for _ in range(lattice.dimension))
    base = set()
    for template in probe.templates:
        base |= _template_sites(probe, template, base_cell)
    diam = 1
    for axis in range(lattice.dimension):
        k = 1
        while True:
            cell = list(base_cell)
            cell[axis] += k
            moved = set()
            for template in probe.templates:
                moved |= _template_sites(probe, template, tuple(cell))
            if not (moved & base):
                break
            k += 1
            if k > 4 * ext + 4:
                raise ValueError("template does not decouple under translation")
        diam = max(diam, k)
    return diam


def _extent(lattice: LatticeSpec) -> int:
    return max(
        (abs(o) for template in lattice.templates for offset, _ in template for o in offset),
        default=0,
    )


def layer_generic(lattice: LatticeSpec) -> tuple[Instantiation, Layering]:
    """Coset layering: per template, translate by multiples of the diameter."""
    inst = instantiate(lattice)
    d = template_diameter(lattice)
    if lattice.boundary == "periodic" and any(w % d for w in lattice.widths):
        raise ValueError(
            f"periodic widths {lattice.widths} are not multiples of the diameter {d}"
        )
    layers = []
    for tmpl_idx in range(len(lattice.templates)):
        for residue in itertools.product(range(d), repeat=lattice.dimension):
            layer = tuple(pos for pos, (t, c) in enumerate(inst.origin)
                          if t == tmpl_idx and all(x % d == r for x, r in zip(c, residue)))
            if layer:
                layers.append(layer)
    return inst, Layering(tuple(layers))


def cross_template_2d():
    """Site plus its four nearest neighbors on a square lattice (one site per cell)."""
    return (
        (
            ((0, 0), 0),
            ((1, 0), 0),
            ((-1, 0), 0),
            ((0, 1), 0),
            ((0, -1), 0),
        ),
    )


def layer_graph2d(lattice: LatticeSpec) -> tuple[Instantiation, Layering]:
    """Depth-5 scheme for the cross template on a periodic square lattice.

    Layers are the cosets of the index-5 subgroup generated by (1,2) and
    (2,-1): cells with x + 2y congruent mod 5 host pairwise disjoint crosses.
    """
    if lattice.dimension != 2 or lattice.boundary != "periodic":
        raise ValueError("the depth-5 scheme needs a periodic 2D lattice")
    if lattice.templates != cross_template_2d() or lattice.cell_sites != 1:
        raise ValueError("the depth-5 scheme is specific to the cross template")
    if any(w % 5 for w in lattice.widths):
        raise ValueError("widths must be multiples of 5 for the coset layers to align")
    inst = instantiate(lattice)
    layers: list[list[int]] = [[] for _ in range(5)]
    for pos, (_, cell) in enumerate(inst.origin):
        x, y = cell
        layers[(x + 2 * y) % 5].append(pos)
    return inst, Layering(tuple(tuple(sorted(l)) for l in layers))


@dataclass(frozen=True)
class DepthReport:
    size: int
    depth: int
    disjoint_ok: bool
    coverage_ok: bool
    bound: int | None = None


def depth_report(
    inst: Instantiation, layering: Layering, bound: int | None = None
) -> DepthReport:
    """Exact disjointness-within-layers and exactly-once coverage certificate."""
    seen: list[int] = []
    disjoint = True
    for layer in layering.layers:
        used: set[int] = set()
        for idx in layer:
            sites = set(inst.neighborhoods[idx])
            if used & sites:
                disjoint = False
            used |= sites
        seen.extend(layer)
    coverage = sorted(seen) == list(range(len(inst.neighborhoods)))
    return DepthReport(
        size=layering.size,
        depth=layering.depth,
        disjoint_ok=disjoint,
        coverage_ok=coverage,
        bound=bound,
    )


def kagome_lattice(cells_x: int, cells_y: int) -> LatticeSpec:
    """Periodic kagome patch with the three site+four-neighbor templates per cell."""
    a, b, c = 0, 1, 2
    templates = (
        # around site A of the cell
        (((0, 0), a), ((0, 0), b), ((0, 0), c), ((0, -1), c), ((1, -1), b)),
        # around site B
        (((0, 0), b), ((0, 0), a), ((0, 0), c), ((-1, 0), c), ((-1, 1), a)),
        # around site C
        (((0, 0), c), ((0, 0), a), ((0, 0), b), ((1, 0), b), ((0, 1), a)),
    )
    return LatticeSpec(
        dimension=2,
        widths=(cells_x, cells_y),
        cell_sites=3,
        templates=templates,
    )


def chain_next_nn(width: int, boundary: str = "open") -> LatticeSpec:
    """1D chain with the three-site window template."""
    return LatticeSpec(
        dimension=1,
        widths=(width,),
        cell_sites=1,
        templates=((((0,), 0), ((1,), 0), ((2,), 0)),),
        boundary=boundary,
    )


def square_cross(width: int) -> LatticeSpec:
    return LatticeSpec(
        dimension=2,
        widths=(width, width),
        cell_sites=1,
        templates=cross_template_2d(),
        boundary="periodic",
    )
