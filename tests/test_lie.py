import numpy as np
import pytest

from qlstab import lie as lie_mod
from qlstab import states
from qlstab.channels import CapExceeded
from qlstab.hilbert import NeighborhoodStructure, uniform_space
from qlstab.lie import (
    LieBasis,
    check_unitary_generation,
    decomposition_length_bound,
    lie_closure,
    neighborhood_stabilizer_algebra,
    stabilizer_algebra,
)


class TestStabilizerAlgebra:
    def test_qubit_dim(self):
        b = stabilizer_algebra(np.array([1.0, 0.0]))
        assert b.dim == 2  # (2-1)^2 + 1

    def test_d16_dim(self, rng):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = stabilizer_algebra(psi / np.linalg.norm(psi))
        assert b.dim == 226

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
        assert b.gram_defect() < 1e-9
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
        assert b.gram_defect() < 1e-8


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
        monkeypatch.setattr(lie_mod, "UGEN_MAX_BYTES", 1024)
        with pytest.raises(CapExceeded, match="exhaustive ugen"):
            check_unitary_generation(psi, n, sp)


class TestLengthBound:
    def test_values(self):
        assert decomposition_length_bound(2) == 2
        assert decomposition_length_bound(16) == 450
        assert decomposition_length_bound(1) == 0
