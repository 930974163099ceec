import numpy as np
import pytest

from qlstab import channels as ch
from qlstab import states
from qlstab._linalg import trace_distance
from qlstab.hilbert import NeighborhoodStructure
from qlstab.scheduler import (
    DepthReport,
    LatticeSpec,
    Layering,
    chain_next_nn,
    depth_report,
    instantiate,
    kagome_lattice,
    layer_generic,
    layer_graph2d,
    square_cross,
    template_diameter,
)


class TestInstantiate:
    def test_chain_width9(self):
        inst = instantiate(chain_next_nn(9))
        assert inst.space.n_subsystems == 9
        assert len(inst.neighborhoods) == 7
        assert inst.neighborhoods[0] == (0, 1, 2)

    def test_kagome_2x2(self):
        inst = instantiate(kagome_lattice(2, 2))
        assert inst.space.n_subsystems == 12
        assert len(inst.neighborhoods) == 12
        for nk in inst.neighborhoods:
            assert len(nk) == 5

    def test_kagome_neighborhoods_match_state_constructor(self):
        lattice = instantiate(kagome_lattice(2, 2))
        state = states.ccz_kagome(2, 2)
        assert set(lattice.neighborhoods.neighborhoods) == set(
            state.neighborhoods.neighborhoods
        )

    def test_width_one_single_cell(self):
        lat = LatticeSpec(
            dimension=1, widths=(1,), cell_sites=2,
            templates=((((0,), 0), ((0,), 1)),), boundary="periodic",
        )
        inst = instantiate(lat)
        assert len(inst.neighborhoods) == 1

    @pytest.mark.parametrize("widths", [(0,), (-1,), (2, 0)])
    def test_width_below_one_rejected(self, widths):
        # a zero width would give an empty patch whose layering passes
        with pytest.raises(ValueError, match="widths must be positive"):
            LatticeSpec(dimension=len(widths), widths=widths, cell_sites=1, templates=((((0,) * len(widths), 0),),))


class TestLayerGeneric:
    def test_chain_depth3(self):
        inst, layering = layer_generic(chain_next_nn(9))
        assert layering.depth == 3
        rep = depth_report(inst, layering)
        assert rep.disjoint_ok and rep.coverage_ok
        assert rep.size == 7

    def test_kagome_depth12(self):
        lat = kagome_lattice(2, 2)
        assert template_diameter(lat) == 2
        inst, layering = layer_generic(lat)
        assert layering.depth == 12  # 3 templates x 2^2 cosets
        rep = depth_report(inst, layering, bound=3 * 2 * 2)
        assert rep.disjoint_ok and rep.coverage_ok
        assert layering.depth <= rep.bound

    def test_strictly_local_single_layer(self):
        lat = LatticeSpec(
            dimension=1, widths=(5,), cell_sites=1,
            templates=((((0,), 0),),), boundary="periodic",
        )
        inst, layering = layer_generic(lat)
        assert layering.depth == 1

    def test_depth_bound_formula(self):
        for lat in (chain_next_nn(9), kagome_lattice(2, 2), square_cross(5)):
            try:
                inst, layering = layer_generic(lat)
            except ValueError:
                continue
            d = template_diameter(lat)
            assert layering.depth <= len(lat.templates) * d ** lat.dimension

    def test_periodic_width_9_is_fine(self):
        inst, layering = layer_generic(chain_next_nn(9, boundary="periodic"))
        rep = depth_report(inst, layering)
        assert layering.depth == 3 and rep.disjoint_ok and rep.coverage_ok

    def test_misaligned_periodic_width_rejected(self):
        with pytest.raises(ValueError):
            layer_generic(
                LatticeSpec(
                    dimension=1, widths=(4,), cell_sites=1,
                    templates=((((0,), 0), ((1,), 0), ((2,), 0)),),
                    boundary="periodic",
                )
            )


class TestGraph2d:
    def test_5x5_torus(self):
        inst, layering = layer_graph2d(square_cross(5))
        assert layering.depth == 5
        assert all(len(l) == 5 for l in layering.layers)
        rep = depth_report(inst, layering)
        assert rep.disjoint_ok and rep.coverage_ok

    def test_10x10_torus(self):
        inst, layering = layer_graph2d(square_cross(10))
        assert layering.depth == 5
        assert all(len(l) == 20 for l in layering.layers)
        rep = depth_report(inst, layering)
        assert rep.disjoint_ok and rep.coverage_ok

    def test_non_multiple_width_rejected(self):
        with pytest.raises(ValueError):
            layer_graph2d(square_cross(6))


class TestDepthReport:
    def test_empty(self):
        inst = instantiate(chain_next_nn(3))
        rep = depth_report(inst, Layering(()))
        assert rep.size == 0 and rep.depth == 0
        assert not rep.coverage_ok

    def test_injected_overlap_detected(self):
        inst = instantiate(chain_next_nn(9))
        bad = Layering(((0, 1, 2, 3, 4, 5, 6),))
        rep = depth_report(inst, bad)
        assert not rep.disjoint_ok


class TestLayeredExecution:
    def test_cycle_graph_layered_equals_sequential(self):
        # 6-cycle graph state: neighborhoods are 3-site windows; the witness
        # channels commute, and composing disjoint layers reproduces any
        # sequential order
        inst = states.graph_state(6, [(i, (i + 1) % 6) for i in range(6)])
        lat = LatticeSpec(
            dimension=1, widths=(6,), cell_sites=1,
            templates=((((-1,), 0), ((0,), 0), ((1,), 0)),),
            boundary="periodic",
        )
        li, layering = layer_generic(lat)
        assert layering.depth == 3
        assert set(li.neighborhoods.neighborhoods) == set(
            inst.neighborhoods.neighborhoods
        )
        chan_of = {tuple(sorted(c.support)): c for c in inst.witness_channels}
        rho_seq = np.eye(64, dtype=complex) / 64
        for c in inst.witness_channels:
            rho_seq = ch.apply(c, rho_seq, inst.space)
        rho_lay = np.eye(64, dtype=complex) / 64
        for layer in layering.layers:
            for idx in layer:
                key = li.neighborhoods[idx]
                rho_lay = ch.apply(chan_of[key], rho_lay, inst.space)
        assert trace_distance(rho_seq, rho_lay) < 1e-9
        assert trace_distance(rho_lay, inst.density()) < 1e-9
