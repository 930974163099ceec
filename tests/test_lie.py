import functools
import tracemalloc

import numpy as np
import pytest

from helpers import gram_defect
from qlstab import _linalg
from qlstab import lie as lie_mod
from qlstab import states
from qlstab._linalg import connected_components
from qlstab.channels import CapExceeded
from qlstab.hilbert import NeighborhoodStructure, uniform_space
from qlstab.lie import (
    LieBasis,
    check_unitary_generation,
    lie_closure,
    neighborhood_stabilizer_algebra,
    stabilizer_algebra,
)
from qlstab.subspaces import check_qls


class TestStabilizerAlgebra:
    def test_qubit_dim(self):
        b = stabilizer_algebra(np.array([1.0, 0.0]))
        assert b.dim == 2  # (2-1)^2 + 1

    def test_d16_dim(self, rng):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = stabilizer_algebra(psi / np.linalg.norm(psi))
        assert b.dim == 226

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_random_dims(self, d, rng):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert stabilizer_algebra(psi / np.linalg.norm(psi)).dim == (d - 1) ** 2 + 1

    def test_contains_global_phase(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        b = stabilizer_algebra(psi)
        # i*I decomposes inside the algebra: check it phases psi and commutes
        coords = [np.trace(x.conj().T @ (1j * np.eye(4))).real for x in b.elements]
        recon = sum(c * x for c, x in zip(coords, b.elements))
        assert np.max(np.abs(recon - 1j * np.eye(4))) < 1e-9

    def test_orthonormal_antihermitian(self, rng):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = stabilizer_algebra(psi / np.linalg.norm(psi))
        assert gram_defect(b) < 1e-9
        for x in b.elements[:5]:
            assert np.max(np.abs(x + x.conj().T)) < 1e-10

    def test_elements_stabilize(self, rng):
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi /= np.linalg.norm(psi)
        b = stabilizer_algebra(psi)
        p = np.eye(5) - np.outer(psi, psi.conj())
        for x in b.elements:
            assert np.linalg.norm(p @ x @ psi) < 1e-10


class TestNeighborhoodStabilizer:
    def test_product_single_site(self):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        b = neighborhood_stabilizer_algebra(psi, [0], sp)
        assert b.dim == 2  # local stabilizer of |0>: phase + rest

    def test_full_system_matches_global(self, rng):
        sp = uniform_space(2)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        b = neighborhood_stabilizer_algebra(psi, [0, 1], sp)
        assert b.dim == stabilizer_algebra(psi).dim

    def test_dicke_neighborhood_strictly_smaller(self):
        inst = states.dicke(4, 2)
        b = neighborhood_stabilizer_algebra(inst.psi, [0, 1, 2], inst.space)
        assert b.dim < 226
        assert b.dim == 37  # 1 + (8-2)^2

    def test_elements_stabilize_target(self):
        inst = states.dicke(4, 2)
        b = neighborhood_stabilizer_algebra(inst.psi, [0, 1, 2], inst.space)
        p = np.eye(16) - np.outer(inst.psi, inst.psi.conj())
        for x in b.elements:
            assert np.linalg.norm(p @ x @ inst.psi) < 1e-9
        assert gram_defect(b) < 1e-8


class TestLieClosure:
    def test_su2_from_two_generators(self):
        x = 1j * np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
        y = 1j * np.array([[0, -1j], [1j, 0]], dtype=complex) / np.sqrt(2)
        out = lie_closure([LieBasis((x,)), LieBasis((y,))])
        assert out.dim == 3

    def test_closure_of_algebra_is_itself(self, rng):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = stabilizer_algebra(psi / np.linalg.norm(psi))
        out = lie_closure([b])
        assert out.dim == b.dim

    def test_two_local_stabilizers_of_product(self):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        b0 = neighborhood_stabilizer_algebra(psi, [0], sp)
        b1 = neighborhood_stabilizer_algebra(psi, [1], sp)
        out = lie_closure([b0, b1])
        # local phases overlap in i*I: 2 + 2 - 1 = 3 < 10
        assert out.dim == 3

    def test_order_independent(self, rng):
        x = 1j * np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
        y = 1j * np.array([[0, -1j], [1j, 0]], dtype=complex) / np.sqrt(2)
        a = lie_closure([LieBasis((x, y))])
        b = lie_closure([LieBasis((y, x))])
        assert a.dim == b.dim == 3


class TestUnitaryGeneration:
    def test_dicke_true(self):
        inst = states.dicke(4, 2)
        v = check_unitary_generation(inst.psi, inst.neighborhoods, inst.space)
        assert v.ok
        assert v.target_dim == 226
        assert v.generated_dim == 226
        assert v.stabilizer_residual < 1e-8

    def test_vbs3_true(self):
        inst = states.vbs_1d(3)
        v = check_unitary_generation(inst.psi, inst.neighborhoods, inst.space)
        assert v.ok
        assert v.target_dim == 677

    @pytest.mark.parametrize("make", [
        lambda: states.dicke(4, 2), lambda: states.vbs_1d(3), lambda: states.line_graph_state(3),
    ], ids=["dicke-4-2", "vbs-3", "line-graph-3"])
    def test_ugen_implies_qls(self, make):
        inst = make()
        assert check_unitary_generation(inst.psi, inst.neighborhoods, inst.space).ok
        assert check_qls(inst.psi, inst.neighborhoods, inst.space).qls

    def test_disconnected_product_false(self):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        n = NeighborhoodStructure([[0], [1]])
        v = check_unitary_generation(psi, n, sp)
        assert not v.ok
        assert v.generated_dim < v.target_dim
        assert v.method == "exhaustive"

    def test_exhaustive_over_cap_raises(self, monkeypatch):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        n = NeighborhoodStructure([[0], [1]])
        # the certificate's generator stack fits (4 generators of size 3);
        # the closure's first pass does not
        monkeypatch.setattr(_linalg, "MAX_BYTES", lie_mod._generator_bytes(4, 3))
        with pytest.raises(CapExceeded, match="exhaustive ugen"):
            check_unitary_generation(psi, n, sp)

    def test_generator_stack_over_cap_raises(self, monkeypatch):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        n = NeighborhoodStructure([[0], [1]])
        monkeypatch.setattr(_linalg, "MAX_BYTES", lie_mod._generator_bytes(4, 3) - 1)
        with pytest.raises(CapExceeded, match="ugen certificate on 4 generators of size 3"):
            check_unitary_generation(psi, n, sp)


class TestClosureCap:
    """The budget guard of `lie_closure` counts the whole pass."""

    @staticmethod
    def _generators():
        # two random elements of su(12) generate it: dim 143, in 11 passes;
        # at this size the arrays, not the interpreter's objects, set the peak
        rng = np.random.default_rng(7)
        return [LieBasis((_su(12, rng),)), LieBasis((_su(12, rng),))]

    def _estimates(self, monkeypatch):
        sizes = []
        real = lie_mod._pass_bytes
        monkeypatch.setattr(lie_mod, "_pass_bytes", lambda *a: sizes.append(real(*a)) or sizes[-1])
        tracemalloc.start()
        ref = lie_closure(self._generators())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        monkeypatch.setattr(lie_mod, "_pass_bytes", real)
        return ref, sizes, peak

    def test_estimate_bounds_traced_peak(self, monkeypatch):
        ref, sizes, peak = self._estimates(monkeypatch)
        assert ref.dim == 143 and len(sizes) == ref.passes
        assert peak <= max(sizes)

    def test_fitting_closure_decides(self, monkeypatch):
        ref, sizes, _ = self._estimates(monkeypatch)
        monkeypatch.setattr(_linalg, "MAX_BYTES", max(sizes))
        capped = lie_closure(self._generators())
        assert (capped.dim, capped.passes) == (ref.dim, ref.passes)

    def test_oversized_pass_refused_before_allocation(self, monkeypatch):
        _, sizes, _ = self._estimates(monkeypatch)
        monkeypatch.setattr(_linalg, "MAX_BYTES", sizes[0] - 1)
        brackets = []
        monkeypatch.setattr(lie_mod.np, "einsum", lambda *a, **k: brackets.append(a[0]))
        with pytest.raises(CapExceeded, match="exhaustive ugen"):
            lie_closure(self._generators())
        assert brackets == []


def _antiherm(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a - a.conj().T


def _su(n, rng):
    a = _antiherm(n, rng)
    return a - np.trace(a) / n * np.eye(n)


def _so(n, rng):
    a = rng.normal(size=(n, n))
    return (a - a.T).astype(complex)


def _sp(n, rng):
    """Element of the compact symplectic algebra {X in u(n) : X^T J + J X = 0}."""
    m = n // 2
    j = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    x = _antiherm(n, rng)
    return 0.5 * (x + j @ x.conj() @ j.T)


def _su_sum(a, b, rng):
    """Element of su(a) ⊗ I + I ⊗ su(b)."""
    return np.kron(_su(a, rng), np.eye(b)) + np.kron(np.eye(a), _su(b, rng))


# proper subalgebras of u(n) that act irreducibly or nearly so, and their dimensions
CONTROLS = {
    "so4": (lambda r: _so(4, r), 6),
    "so6": (lambda r: _so(6, r), 15),
    "so9": (lambda r: _so(9, r), 36),
    "sp4": (lambda r: _sp(4, r), 10),
    "sp6": (lambda r: _sp(6, r), 21),
    "su2+su3": (lambda r: _su_sum(2, 3, r), 3 + 8),
    "su3+su3": (lambda r: _su_sum(3, 3, r), 8 + 8),
}


class TestCertificate:
    @pytest.mark.parametrize("name", CONTROLS)
    def test_proper_subalgebra_not_certified(self, name, rng):
        make, dim = CONTROLS[name]
        ys = np.stack([make(rng), make(rng)])
        assert lie_closure([LieBasis(tuple(ys))]).dim == dim
        for seed in range(5):
            assert lie_mod._certificate(ys, seed)[1] is None

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_two_random_generators_certified(self, n, rng):
        ys = np.stack([_antiherm(n, rng), _antiherm(n, rng)])
        for seed in range(5):
            weakest = lie_mod._certificate(ys, seed)[1]
            assert weakest is not None and weakest > lie_mod.CLUSTER_RTOL



def test_connected_components_matches_union_find(rng):
    for _ in range(30):
        n = int(rng.integers(1, 14))
        adj = rng.random((n, n)) < 0.12
        parent = list(range(n))

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j in zip(*np.nonzero(adj)):
            parent[root(i)] = root(j)
        assert connected_components(adj) == len({root(i) for i in range(n)})


def _disconnected_product():
    return (np.kron([1, 0], [1, 0]).astype(complex), NeighborhoodStructure([[0], [1]]),
            uniform_space(2))


INSTANCES = {
    "line-graph-3": lambda: states.line_graph_state(3),
    "line-graph-4": lambda: states.line_graph_state(4),
    "dicke-4-2": lambda: states.dicke(4, 2),
    "vbs-3": lambda: states.vbs_1d(3),
    "vbs-4": lambda: states.vbs_1d(4),
    "grid-graph-2x3": lambda: states.grid_graph_state(2, 3),
}


def _problem(name):
    if name == "disconnected-product":
        return _disconnected_product()
    inst = INSTANCES[name]()
    return inst.psi, inst.neighborhoods, inst.space


@functools.cache
def _closure_dim(name):
    psi, nstruct, space = _problem(name)
    return lie_closure([neighborhood_stabilizer_algebra(psi, nk, space) for nk in nstruct]).dim


class TestUgenDifferential:
    @pytest.mark.parametrize("name", [
        "line-graph-3", "line-graph-4", "dicke-4-2", "disconnected-product",
        pytest.param("vbs-3", marks=pytest.mark.slow),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_closure(self, name, seed, monkeypatch):
        # the VBS 3 oracle's confirming pass brackets 100 generators with all
        # 677 directions: 2.4 GiB, above the production cap
        monkeypatch.setattr(_linalg, "MAX_BYTES", 4 << 30)
        v = check_unitary_generation(*_problem(name), seed=seed)
        assert v.generated_dim == _closure_dim(name)
        assert v.ok == (_closure_dim(name) == v.target_dim)

    @pytest.mark.parametrize("name", INSTANCES)
    def test_decided_by_certificate(self, name):
        for seed in range(5):
            v = check_unitary_generation(*_problem(name), seed=seed)
            assert (v.method, v.passes, v.ok) == ("certificate", 0, True)
            assert v.generated_dim == v.target_dim
            assert v.weakest_edge > lie_mod.CLUSTER_RTOL
            assert v.cluster_gaps[0] <= lie_mod.CLUSTER_RTOL < v.cluster_gaps[1]


class TestGeneratorCap:
    """The budget guard of the certificate, decided from Schmidt
    ranks before any D x D array is built."""

    @pytest.mark.parametrize("name", [*INSTANCES, "disconnected-product", "dicke-5-2"])
    def test_count_matches_generators(self, name):
        if name == "dicke-5-2":
            inst = states.dicke(5, 2)
            problem = inst.psi, inst.neighborhoods, inst.space
        else:
            problem = _problem(name)
        cs, ys, _ = lie_mod._rotated_generators(*problem)
        assert lie_mod._generator_count(*problem) == len(cs) == len(ys)

    def test_estimate_bounds_traced_peak(self):
        inst = states.vbs_1d(4)
        g = lie_mod._generator_count(inst.psi, inst.neighborhoods, inst.space)
        tracemalloc.start()
        assert check_unitary_generation(inst.psi, inst.neighborhoods, inst.space).ok
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= lie_mod._generator_bytes(g, inst.space.total_dim - 1)
