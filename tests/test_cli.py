import json
import os
import sys

import numpy as np
import pytest

from qlstab import mixing, states
from qlstab.cli import (
    REPRODUCTIONS,
    channel_from_json,
    channel_to_json,
    circuit_from_json,
    circuit_to_json,
    load_problem,
    main,
)
from qlstab.channels import Circuit


PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def write_json(tmp_path, name, data):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def dicke_problem(tmp_path):
    return write_json(tmp_path, "problem.json", {
        "state": {"constructor": {"name": "dicke", "params": {"n": 4, "k": 2}}},
    })


class TestCheck:
    def test_qls_dicke(self, tmp_path, capsys):
        rc = main(["check", "qls", dicke_problem(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["pass"] is True
        assert out["certificates"]["intersection_dim"] == 1

    def test_sss_dicke(self, tmp_path, capsys):
        rc = main(["check", "sss", dicke_problem(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        row = out["certificates"]["per_neighborhood"][0]
        assert row["schmidt_dim"] == 2 and row["neighborhood_dim"] == 8

    def test_commuting_projectors_dicke_fails(self, tmp_path, capsys):
        rc = main(["check", "commuting-projectors", dicke_problem(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["pass"] is False
        assert out["certificates"]["max_commutator_norm"] > 1e-3

    def test_intersection_margin_reported(self, tmp_path, capsys):
        problem = dicke_problem(tmp_path)
        main(["check", "qls", problem])
        margin = json.loads(capsys.readouterr().out)["certificates"]["intersection_margin"]
        assert abs(margin["largest_kept"]) < 1e-12 and margin["smallest_dropped"] > 0.1
        main(["check", "commuting-projectors", problem])
        margin = json.loads(capsys.readouterr().out)["certificates"]["intersection_margin"]
        assert set(margin) == {"largest_kept", "smallest_dropped"}

    def test_w_chain_11_margin_above_old_dense_limit(self, tmp_path, capsys):
        n = 11
        w = np.zeros(2**n)
        w[[1 << k for k in range(n)]] = 1 / np.sqrt(n)
        path = write_json(tmp_path, "w11.json", {
            "space": {"dims": [2] * n},
            "neighborhoods": [[i, i + 1] for i in range(1, n)],
            "state": {"vector": [[x, 0.0] for x in w]},
        })
        assert main(["check", "qls", path]) == 1
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert cert["intersection_dim"] == 2
        margin = cert["intersection_margin"]
        assert abs(margin["largest_kept"]) < 1e-12 and margin["smallest_dropped"] > 0.04

    @pytest.mark.parametrize("what", ["qls", "commuting-projectors"])
    def test_intersection_cap_exit_3(self, tmp_path, capsys, monkeypatch, what):
        from qlstab import subspaces

        monkeypatch.setattr(subspaces, "INTERSECT_MAX_BYTES", 4096)
        assert main(["check", what, dicke_problem(tmp_path)]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_explicit_vector_ghz_not_qls(self, tmp_path, capsys):
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        path = write_json(tmp_path, "ghz.json", {
            "space": {"dims": [2, 2, 2]},
            "neighborhoods": [[1, 2], [2, 3]],
            "state": {"vector": [[x, 0.0] for x in ghz]},
        })
        rc = main(["check", "qls", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["certificates"]["intersection_dim"] == 2

    def test_matching_overlap(self, tmp_path, capsys):
        path = write_json(tmp_path, "n.json", {
            "space": {"dims": [2, 2, 2, 2]},
            "neighborhoods": [[1, 2], [2, 3], [3, 4]],
            "state": {"vector": [[1.0, 0.0]] + [[0.0, 0.0]] * 15},
        })
        rc = main(["check", "matching-overlap", path])
        assert rc == 0

    @pytest.mark.parametrize("problem, reason", [
        ("graph_cycle5.json", "precondition: matching-overlap"),
        ("ghz3.json", "precondition: qls"),
    ])
    def test_matching_overlap_rfts_failed_precondition_is_strict_json(self, problem, reason, capsys):
        # the commutator is not computed, so the report holds null, not NaN
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        rc = main(["check", "matching-overlap-rfts", os.path.join(PROBLEMS, problem)])
        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rc == 1
        assert out["verdicts"]["reason"] == reason
        assert out["certificates"]["max_pairwise_commutator"] is None

    def test_algebraic_rfts_reports_cluster_margin(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", {
            "state": {"constructor": {"name": "graph-cycle", "params": {"n": 5}}},
        })
        rc = main(["check", "algebraic-rfts", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["tolerances"]["cluster_rtol"] == 1e-8
        gaps = out["certificates"]["cluster_gaps"]
        assert gaps["largest_merged"] < 1e-12
        assert gaps["smallest_split"] > 1e-4

    def test_algebraic_rfts_reports_both_residuals(self, tmp_path, capsys):
        # both residual cuts (1e-7 and 1e-6) decide the verdict, so both
        # margins are in the report
        from qlstab import rfts, states

        path = write_json(tmp_path, "c5.json", {
            "state": {"constructor": {"name": "graph-cycle", "params": {"n": 5}}},
        })
        rc = main(["check", "algebraic-rfts", path])
        cert = json.loads(capsys.readouterr().out)["certificates"]
        inst = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])
        res = rfts.check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert rc == 0
        assert cert["target_factor_residual"] == res.target_factor_residual < 1e-12
        assert cert["projector_block_residual"] == res.projector_block_residual < 1e-12

    def test_ugen_reports_certificate_margin(self, tmp_path, capsys):
        rc = main(["check", "ugen", dicke_problem(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["tolerances"]["cluster_rtol"] == 1e-8
        cert = out["certificates"]
        assert (cert["method"], cert["passes"], cert["generated_dim"]) == ("certificate", 0, 226)
        assert cert["cluster_gaps"]["largest_merged"] <= 1e-8 < cert["cluster_gaps"]["smallest_split"]
        assert cert["weakest_edge"] > 1e-8

    def test_cmi_on_graph(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {
            "state": {"constructor": {"name": "graph-line", "params": {"n": 5}}},
            "options": {"region_a": [1], "region_b": [5]},
        })
        rc = main(["check", "cmi", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certificates"]["cmi_bits"] < 1e-8

    def test_bad_file_exit_2(self, capsys):
        rc = main(["check", "qls", "/nonexistent/problem.json"])
        assert rc == 2

    def test_commutant_over_cap_exit_3(self, tmp_path, capsys):
        # the W-product's 7-qubit neighbourhood algebras need a 41 GiB system
        problem = write_json(tmp_path, "problem.json", {
            "state": {"constructor": {"name": "w-product-9"}},
        })
        rc = main(["check", "algebraic-rfts", problem])
        assert rc == 3
        assert "cap exceeded: commutant system" in capsys.readouterr().err

    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        from qlstab import lie

        def oom(*args, **kwargs):
            raise MemoryError("Unable to allocate 13.1 GiB")

        monkeypatch.setattr(lie, "check_unitary_generation", oom)
        rc = main(["check", "ugen", dicke_problem(tmp_path)])
        assert rc == 3
        assert "cap exceeded: Unable to allocate 13.1 GiB" in capsys.readouterr().err

    def test_threads_without_threadpoolctl_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        rc = main(["check", "qls", dicke_problem(tmp_path), "--threads", "1"])
        assert rc == 0
        assert "--threads ignored: threadpoolctl is not installed" in capsys.readouterr().err

    def test_two_state_sources_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {
            "space": {"dims": [2]},
            "neighborhoods": [[1]],
            "state": {
                "vector": [[1.0, 0.0], [0.0, 0.0]],
                "constructor": {"name": "dicke"},
            },
        })
        rc = main(["check", "qls", path])
        assert rc == 2


class TestSynthSimulate:
    def test_dicke_fts_roundtrip(self, tmp_path, capsys):
        problem = dicke_problem(tmp_path)
        circuit_path = str(tmp_path / "circuit.json")
        rc = main([
            "synth", "fts", problem, "--circuit", circuit_path, "--force",
            "--trials", "2",
        ])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certificates"]["final_distance"] < 1e-10
        cert = out["certificates"]
        # the framed circuit is proved for every input; no input was drawn
        assert (cert["method"], cert["final_occupied"], cert["drawn_inputs"]) == ("occupied-set", [0], 0)
        assert cert["final_distance"] <= cert["worst_input_bound"] < 1e-10
        assert 0.0 <= cert["tp_defect"] < 1e-12
        traj_path = str(tmp_path / "traj.csv")
        rc2 = main([
            "simulate", circuit_path, "--problem", problem,
            "--trajectory", traj_path,
        ])
        out2 = json.loads(capsys.readouterr().out)
        assert rc2 == 0
        assert out2["certificates"]["final_distance"] < 1e-10
        assert out2["certificates"]["method"] == "diagonal"
        with open(traj_path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "step,rank,trace_distance"
        assert lines[1].startswith("0,16,")
        assert lines[-1].split(",")[1] == "1"

    def test_circuit_reload_identical(self, tmp_path):
        from qlstab import states
        from qlstab.channels import Circuit

        inst = states.line_graph_state(3)
        circ = Circuit(inst.witness_channels, inst.space)
        data = circuit_to_json(circ)
        circ2 = circuit_from_json(json.loads(json.dumps(data)))
        assert circ2.space.dims == circ.space.dims
        for a, b in zip(circ.steps, circ2.steps):
            assert a.support == b.support
            for ka, kb in zip(a.kraus, b.kraus):
                assert np.max(np.abs(ka - kb)) < 1e-12

    def test_synth_fts_refused_when_spans_too_large(self, tmp_path, capsys):
        # a Bell pair with strictly local neighborhoods: every Schmidt span
        # fills its neighborhood space, so synthesis is refused with a reason
        path = write_json(tmp_path, "bell.json", {
            "space": {"dims": [2, 2]},
            "neighborhoods": [[1], [2]],
            "state": {"vector": [[1 / np.sqrt(2), 0], [0, 0], [0, 0], [1 / np.sqrt(2), 0]]},
        })
        rc = main(["synth", "fts", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["verdicts"]["synthesized"] is False
        assert "Schmidt span" in out["verdicts"]["reason"]

    def test_synth_rfts_graph_cycle(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", {
            "state": {"constructor": {"name": "graph-cycle", "params": {"n": 5}}},
        })
        rc = main(["synth", "rfts", path, "--trials", "5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        cert = out["certificates"]
        assert cert["factor_dims"] == [2, 2, 2, 2, 2]
        # the built channels' Kraus operators commute: one order proves all 5!
        assert (cert["method"], cert["orders_computed"], cert["distinct_orders"]) == ("commuting", 1, 120)
        assert 0.0 <= cert["order_bound"] < 1e-12
        assert cert["order_bound"] <= cert["worst_input_bound"] < 1e-10


    def test_synth_rfts_seed_builds_equal_maps(self, tmp_path, capsys):
        # each seed builds from the splits its own check verified; a factor
        # reset is the same map in every frame of the factor
        from qlstab.channels import relocate, superoperator

        problem = os.path.join(PROBLEMS, "graph_cycle5.json")
        maps = []
        for seed in ("0", "3"):
            circuit = str(tmp_path / f"c{seed}.json")
            assert main(["synth", "rfts", problem, "--seed", seed, "--trials", "2", "--circuit", circuit]) == 0
            capsys.readouterr()
            circ = circuit_from_json(json.load(open(circuit)))
            maps.append([superoperator(*relocate(c, c.support, circ.space)) for c in circ.steps])
        assert len(maps[0]) == len(maps[1]) == 5
        for a, b in zip(*maps):
            assert np.max(np.abs(a - b)) < 1e-12


class TestScheduleMixing:
    def test_schedule_kagome(self, tmp_path, capsys):
        path = write_json(tmp_path, "lat.json", {"kind": "kagome", "cells_x": 2, "cells_y": 2})
        rc = main(["schedule", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certificates"]["depth"] == 12

    def test_schedule_chain(self, tmp_path, capsys):
        path = write_json(tmp_path, "lat.json", {"kind": "chain-next-nn", "width": 9})
        rc = main(["schedule", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certificates"]["depth"] == 3

    def test_schedule_graph2d(self, tmp_path, capsys):
        path = write_json(tmp_path, "lat.json", {"kind": "graph2d", "width": 5})
        rc = main(["schedule", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certificates"]["depth"] == 5

    def test_mixing_no_go(self, capsys):
        rc = main(["mixing", "--no-go"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certificates"]["min_distance"] > 1e-6

    def test_mixing_gap_only(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {
            "state": {"constructor": {"name": "graph-line", "params": {"n": 3}}},
        })
        rc = main(["mixing", path, "--ts"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert abs(out["verdicts"]["per_channel_gap"] - 1.0) < 1e-9
        assert out["certificates"]["eta_samples"] == []

    def test_mixing_eta_grid(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {
            "state": {"constructor": {"name": "graph-line", "params": {"n": 3}}},
        })
        rc = main(["--seed", "5", "mixing", path, "--ts", "1", "2.5"])
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert rc == 0
        inst = states.line_graph_state(3)
        fam = mixing.CommutingResetFamily(list(inst.witness_channels), inst.space, inst.psi)
        fam.eta_samples([1.0, 2.5], seed=5)
        assert cert["applies"] == fam.applies > 0
        for got, t in zip(cert["eta_samples"], [1.0, 2.5], strict=True):
            one = fam.eta_sample(t, seed=5)
            assert got["t"] == t
            assert abs(got["lower"] - one.lower) <= 1e-14
            assert abs(got["upper"] - one.upper) <= 1e-13 * one.upper

    def test_mixing_family_reports_applies(self, capsys):
        rc = main(["mixing", "--family-sizes", "3", "4"])
        cert = json.loads(capsys.readouterr().out)["certificates"]
        fams = [mixing.CommutingResetFamily(list(i.witness_channels), i.space, i.psi)
                for i in (states.line_graph_state(3), states.line_graph_state(4))]
        rep = mixing.rapid_mixing_check(fams, ts=[1.5, 2.5, 4.0, 6.0])
        assert rc == (0 if rep.passed else 1)
        assert cert["applies"] == rep.applies > 0


class TestReproduce:
    def test_unknown_name_lists_registry(self, capsys):
        rc = main(["reproduce", "not-a-thing"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dicke-fts" in err

    def test_quick_entries(self, capsys):
        for name in ("chain-depth3", "graph-depth5", "ising-gibbs-correlation",
                     "amplitude-damping-no-go", "nonfactorizable-252"):
            rc = main(["reproduce", name])
            assert rc == 0, name

    @pytest.mark.parametrize("name, method, computed", [
        ("graph-line3-rfts", "commuting", 1),
        # the 2x5x2 witnesses' Kraus operators do not commute (0.5): no bound
        ("nonfactorizable-252", None, None),
    ])
    def test_robustness_path_reported(self, name, method, computed, capsys):
        assert main(["reproduce", name]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"][name]["certificates"]
        assert (cert.get("method"), cert.get("orders_computed")) == (method, computed)
        if method == "commuting":
            assert cert["orders"] == 6 and cert["order_bound"] < 1e-12

    @pytest.mark.parametrize("name", ["dicke-fts", "vbs3-fts", "vbs4-fts"])
    def test_fts_path_reported(self, name, capsys):
        assert main(["reproduce", name]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"][name]["certificates"]
        assert (cert["method"], cert["final_occupied"], cert["drawn_inputs"]) == ("occupied-set", [0], 0)
        assert cert["final_distance"] <= cert["worst_input_bound"] < 1e-10
        assert cert["tp_defect"] < 1e-12 and cert["frame_defect"] < 1e-12

    def test_report_on_stdout(self, capsys):
        rc = main(["reproduce", "chain-depth3"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert rc == 0
        assert out["verdicts"]["chain-depth3"] is True
        assert out["certificates"]["chain-depth3"]["failed_checks"] == []
        assert captured.err.startswith("[PASS] chain-depth3 (")

    def test_failed_check_named(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(
            REPRODUCTIONS, "half-true",
            lambda seed: ({"depth == 3": True, "distance < 1e-10": False}, {"seed": seed}),
        )
        path = tmp_path / "report.json"
        rc = main(["reproduce", "half-true", "--seed", "4", "--output", str(path)])
        captured = capsys.readouterr()
        report = json.loads(path.read_text())
        assert rc == 1
        assert report == json.loads(captured.out)
        assert report["pass"] is False
        result = report["certificates"]["half-true"]
        assert result["failed_checks"] == ["distance < 1e-10"]
        assert result["certificates"] == {"seed": 4}
        assert "failed: distance < 1e-10" in captured.err

    def test_registry_complete(self):
        expected = {
            "dicke-fts", "aklt-not-fts", "vbs3-fts", "graph-line3-rfts",
            "w-product-robust", "nonfactorizable-252", "chain-depth3",
            "kagome-depth12", "graph-depth5", "ising-gibbs-correlation",
            "amplitude-damping-no-go", "graph-rapid-mixing",
        }
        assert expected <= set(REPRODUCTIONS)


class TestReportDeterminism:
    def test_same_seed_same_report(self, tmp_path, capsys):
        problem = dicke_problem(tmp_path)
        rc1 = main(["--seed", "7", "check", "ugen", problem])
        out1 = json.loads(capsys.readouterr().out)
        rc2 = main(["--seed", "7", "check", "ugen", problem])
        out2 = json.loads(capsys.readouterr().out)
        del out1["elapsed_seconds"], out2["elapsed_seconds"]
        assert out1 == out2


class TestShuffleSimulation:
    def test_rfts_circuit_shuffles_pass(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", {
            "state": {"constructor": {"name": "graph-cycle", "params": {"n": 5}}},
        })
        circuit_path = str(tmp_path / "circuit.json")
        rc = main(["synth", "rfts", path, "--circuit", circuit_path])
        capsys.readouterr()
        assert rc == 0
        rc2 = main([
            "simulate", circuit_path, "--problem", path,
            "--shuffle", "--trials", "6",
        ])
        out = json.loads(capsys.readouterr().out)
        assert rc2 == 0
        assert out["certificates"]["orders"] == 6
        assert out["certificates"]["final_distance"] < 1e-9

    def test_repeated_orders_run_once(self, tmp_path, capsys):
        from qlstab import channels as ch

        path = write_json(tmp_path, "c5.json", {
            "state": {"constructor": {"name": "graph-cycle", "params": {"n": 5}}},
        })
        circuit_path = str(tmp_path / "circuit.json")
        assert main(["synth", "rfts", path, "--circuit", circuit_path]) == 0
        capsys.readouterr()
        rc = main(["simulate", circuit_path, "--problem", path, "--shuffle", "--trials", "400", "--seed", "0"])
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert rc == 0
        # the same draws as `simulate`: the identity order, then 399 sampled ones
        with open(circuit_path) as fh:
            circ = circuit_from_json(json.load(fh))
        rng = np.random.default_rng(0)
        orders = [tuple(range(5))] + [tuple(rng.permutation(5)) for _ in range(399)]
        assert cert["orders"] == 400
        assert cert["distinct_orders"] == len(set(orders)) == 117
        from qlstab import states

        psi = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)]).psi
        rho0 = np.eye(32, dtype=complex) / 32
        worst = max(
            ch.run(Circuit(tuple(circ.steps[i] for i in o), circ.space), rho0, target=psi)[1][-1].trace_distance
            for o in orders
        )
        assert cert["final_distance"] == worst


def _pairs(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


_X = _pairs([[0, 1], [1, 0]])
_I4 = _pairs(np.eye(4))
# the frame B = I on the space dims [2, 2]: region {1, 2}, so m = 4, and
# one copy of a one-dimensional Schmidt span with psi_coords [1]
_FRAME = {"region": [1, 2], "local": _I4, "psi_coords": [[1.0, 0.0]], "schmidt_dim": 1, "copies": 1}

# each file breaks one rule of the circuit format on the space dims [2, 2]
MALFORMED_CIRCUITS = {
    "support-zero": {"steps": [{"support": [0], "kraus": [_X]}]},
    "support-out-of-range": {"steps": [{"support": [3], "kraus": [_X]}]},
    "support-not-integer": {"steps": [{"support": ["a"], "kraus": [_X]}]},
    "support-repeated": {"steps": [{"support": [1, 1], "kraus": [_I4]}]},
    "kraus-side-mismatch": {"steps": [{"support": [1], "kraus": [_I4]}]},
    "kraus-bad-pair": {"steps": [{"support": [1], "kraus": [[[[0, 0, 0], [1, 0]], [[1, 0], [0, 0]]]]}]},
    "frame-wrong-shape": {"frame": {**_FRAME, "local": _pairs(np.eye(2))},
                          "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-not-unitary": {"frame": {**_FRAME, "local": _pairs(2 * np.eye(4))},
                          "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-missing": {"steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-region-out-of-range": {"frame": {**_FRAME, "region": [1, 3]},
                                  "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-psi-coords-wrong-length": {"frame": {**_FRAME, "psi_coords": [[1.0, 0.0], [0.0, 0.0]]},
                                      "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-psi-coords-not-normalized": {"frame": {**_FRAME, "psi_coords": [[0.5, 0.5]]},
                                        "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-too-many-copies": {"frame": {**_FRAME, "region": [1], "local": _pairs(np.eye(2)),
                                        "psi_coords": _pairs(np.eye(2)[0]), "copies": 3},
                              "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-key-missing": {"frame": {k: v for k, v in _FRAME.items() if k != "copies"},
                          "steps": [{"permutation": [0, 1, 2, 3]}]},
    "frame-legacy-dense": {"frame": _I4, "steps": [{"permutation": [0, 1, 2, 3]}]},
    "permutation-repeats": {"frame": _FRAME, "steps": [{"permutation": [0, 0, 1, 2]}]},
    "permutation-out-of-range": {"frame": _FRAME, "steps": [{"permutation": [1, 2, 3, 4]}]},
    "permutation-too-short": {"frame": _FRAME, "steps": [{"permutation": [0, 1, 2]}]},
    "permutation-not-integer": {"frame": _FRAME, "steps": [{"permutation": [0.0, 1.0, 2.0, 3.0]}]},
}


_CHAIN3 = {"state": {"constructor": {"name": "graph-line", "params": {"n": 3}}}}
_GHZ3 = {
    "space": {"dims": [2, 2, 2]},
    "state": {"vector": [[0.5 ** 0.5, 0.0]] + [[0.0, 0.0]] * 6 + [[0.5 ** 0.5, 0.0]]},
}

# (check subcommand, problem) pairs, each breaking one index rule on a
# 3-site chain or one shape rule of the problem file; every one must end
# with exit code 2, not a traceback
MALFORMED_PROBLEMS = {
    "neighborhood-out-of-range": ("qls", {**_CHAIN3, "neighborhoods": [[1, 2], [3, 9]]}),
    "neighborhood-zero": ("qls", {**_CHAIN3, "neighborhoods": [[0, 1], [2, 3]]}),
    "neighborhood-not-integer": ("qls", {**_CHAIN3, "neighborhoods": [["a"], [2, 3]]}),
    "neighborhood-repeated-site": ("qls", {**_CHAIN3, "neighborhoods": [[1, 1], [2, 3]]}),
    "neighborhood-empty": ("qls", {**_CHAIN3, "neighborhoods": [[], [1, 2, 3]]}),
    "neighborhoods-not-a-list": ("qls", {**_CHAIN3, "neighborhoods": 3}),
    "explicit-neighborhood-out-of-range": ("qls", {**_GHZ3, "neighborhoods": [[1, 2], [3, 4]]}),
    "cmi-region-a-zero": ("cmi", {**_CHAIN3, "options": {"region_a": [0]}}),
    "correlations-region-a-zero": ("correlations", {**_CHAIN3, "options": {"region_a": [0]}}),
    "correlations-region-b-out-of-range": ("correlations", {**_CHAIN3, "options": {"region_b": [4]}}),
    "cmi-region-c-out-of-range": ("cmi", {**_CHAIN3, "options": {"region_c": [7]}}),
    "cmi-region-c-not-a-list": ("cmi", {**_CHAIN3, "options": {"region_c": 2}}),
    "cmi-regions-overlap": ("cmi", {**_CHAIN3, "options": {"region_a": [1], "region_b": [1]}}),
    "cmi-region-c-overlaps-b": ("cmi", {**_CHAIN3, "options": {"region_c": [2, 3]}}),
    "correlations-regions-overlap": ("correlations", {**_CHAIN3, "options": {"region_a": [2],
                                                                             "region_b": [2, 3]}}),
    "constructor-param-missing": ("qls", {"state": {"constructor": {"name": "graph-line",
                                                                    "params": {}}}}),
    "constructor-param-not-a-number": ("qls", {"state": {"constructor": {"name": "graph-line",
                                                                         "params": {"n": "x"}}}}),
    "graph-edge-out-of-range": ("qls", {"state": {"constructor": {
        "name": "graph", "params": {"n": 3, "edges": [[1, 5]]}}}}),
    "constructor-not-an-object": ("qls", {"state": {"constructor": 3}}),
    "problem-not-an-object": ("qls", [1]),
    "options-not-an-object": ("cmi", {**_CHAIN3, "options": 5}),
    "explicit-space-dims-not-integers": ("qls", {**_GHZ3, "space": {"dims": "ab"}, "neighborhoods": [[1]]}),
    "explicit-space-dim-zero": ("qls", {**_GHZ3, "space": {"dims": [2, 0]}, "neighborhoods": [[1], [2]]}),
    "explicit-space-missing": ("qls", {"state": _GHZ3["state"], "neighborhoods": [[1, 2, 3]]}),
}

# lattice files for `schedule`, each malformed
MALFORMED_LATTICES = {
    "kagome-cells-y-missing": {"kind": "kagome", "cells_x": 2},
    "not-an-object": [1, 2],
    "unknown-kind": {"kind": "honeycomb"},
}


class TestMalformedProblem:
    @pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
    def test_exit_2(self, case, tmp_path, capsys):
        sub, problem = MALFORMED_PROBLEMS[case]
        rc = main(["check", sub, write_json(tmp_path, "problem.json", problem)])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["cmi", "correlations"])
    def test_well_formed_regions_run(self, sub, tmp_path, capsys):
        # the same skeleton with every index rule kept
        problem = {**_CHAIN3, "neighborhoods": [[1, 2], [2, 3]],
                   "options": {"region_a": [1], "region_b": [3], "region_c": [2]}}
        rc = main(["check", sub, write_json(tmp_path, "problem.json", problem)])
        assert rc in (0, 1)
        assert json.loads(capsys.readouterr().out)["task"] == f"check {sub}"

    @pytest.mark.parametrize("case", sorted(MALFORMED_LATTICES))
    def test_schedule_exit_2(self, case, tmp_path, capsys):
        rc = main(["schedule", write_json(tmp_path, "lattice.json", MALFORMED_LATTICES[case])])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("initial", ["nosuch.json", "wrong-length.json"])
    def test_simulate_initial_exit_2(self, initial, tmp_path, capsys):
        circuit = write_json(tmp_path, "circuit.json", {"dims": [2, 2], "steps": [{"support": [2], "kraus": [_X]}]})
        write_json(tmp_path, "wrong-length.json", [[1.0, 0.0], [0.0, 0.0]])
        rc = main(["simulate", circuit, "--initial", str(tmp_path / initial)])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_shipped_problems_load(self):
        # every problem file with a state; the lattice files feed `schedule`
        shipped = sorted(
            p for p in (os.path.join(PROBLEMS, f) for f in os.listdir(PROBLEMS))
            if "state" in json.load(open(p))
        )
        assert len(shipped) == 3
        for path in shipped:
            inst, _ = load_problem(path)
            assert len(inst.neighborhoods) >= 1


class TestMalformedCircuit:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CIRCUITS))
    def test_exit_2(self, case, tmp_path, capsys):
        path = write_json(tmp_path, "circuit.json", {"dims": [2, 2], **MALFORMED_CIRCUITS[case]})
        rc = main(["simulate", path])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_legacy_dense_frame_names_schema(self, tmp_path, capsys):
        path = write_json(tmp_path, "circuit.json", {"dims": [2, 2], **MALFORMED_CIRCUITS["frame-legacy-dense"]})
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert "dense" in err and all(k in err for k in _FRAME)

    def test_well_formed_variants_load(self, tmp_path, capsys):
        # the same skeletons with every rule kept run to exit code 0
        path = write_json(tmp_path, "circuit.json", {"dims": [2, 2], "frame": _FRAME, "steps": [
            {"support": [2], "kraus": [_X]}, {"permutation": [0, 2, 1, 3]},
        ]})
        assert main(["simulate", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificates"]["frame_defect"] == 0.0
        # neither a target nor a trajectory: the rank is read from the final
        # weights, which X leaves at I/D
        assert (out["certificates"]["method"], out["certificates"]["final_rank"]) == ("diagonal", 4)


class TestFramedCircuitFile:
    def _synth(self, tmp_path, capsys):
        problem = dicke_problem(tmp_path)
        circuit_path = str(tmp_path / "circuit.json")
        rc = main(["synth", "fts", problem, "--circuit", circuit_path, "--force", "--trials", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        return problem, circuit_path, out

    def test_file_holds_frame_and_index_lists(self, tmp_path, capsys):
        _, circuit_path, out = self._synth(tmp_path, capsys)
        assert out["certificates"]["frame_defect"] < 1e-12
        with open(circuit_path) as fh:
            data = json.load(fh)
        # Dicke(4, 2): region of 3 qubits (m = 8), s = 2, r = 4, psi_coords of s D / m = 4
        frame = data["frame"]
        assert sorted(frame) == ["copies", "local", "psi_coords", "region", "schmidt_dim"]
        assert frame["region"] == [1, 2, 3] and (frame["schmidt_dim"], frame["copies"]) == (2, 4)
        assert np.shape(frame["local"]) == (8, 8, 2) and np.shape(frame["psi_coords"]) == (4, 2)
        perms = [s["permutation"] for s in data["steps"] if "permutation" in s]
        assert perms and all(sorted(p) == list(range(16)) for p in perms)
        assert all("kraus" in s for s in data["steps"] if "permutation" not in s)

    def test_round_trip_bit_identical(self, tmp_path, capsys):
        from qlstab import states
        from qlstab.fts import plan_fts, synthesize_fts

        inst = states.vbs_1d(3)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        circ2 = circuit_from_json(json.loads(json.dumps(circuit_to_json(circ))))
        assert circ2.frame.basis.tobytes() == circ.frame.basis.tobytes()
        assert len(circ2) == len(circ)
        for a, b in zip(circ.steps, circ2.steps):
            assert type(a) is type(b) and a.label == b.label and a.support == b.support
            if hasattr(a, "perm"):
                assert b.frame is circ2.frame
                assert np.array_equal(a.perm, b.perm)
            else:
                assert all(ka.tobytes() == kb.tobytes() for ka, kb in zip(a.kraus, b.kraus))

    def test_vbs6_file_small(self, tmp_path, capsys):
        # D = 729: the factored frame is 9 x 9 plus 162 coordinates; the file
        # held B as 729 x 729 pairs, 6.8 MB
        problem = write_json(tmp_path, "vbs6.json", {"state": {"constructor": {"name": "vbs1d", "params": {"n": 6}}}})
        circuit_path = str(tmp_path / "circuit.json")
        assert main(["synth", "fts", problem, "--circuit", circuit_path, "--force", "--trials", "1"]) == 0
        capsys.readouterr()
        assert os.path.getsize(circuit_path) < 500_000
        assert main(["simulate", circuit_path, "--problem", problem]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificates"]["final_rank"] == 1 and out["certificates"]["final_distance"] < 1e-12

    def test_frame_forms_computed_once_per_distinct_channel(self, tmp_path, capsys, monkeypatch):
        from qlstab import channels as ch

        _, circuit_path, _ = self._synth(tmp_path, capsys)
        with open(circuit_path) as fh:
            circ = circuit_from_json(json.load(fh))
        channels = [s for s in circ.steps if isinstance(s, ch.Channel)]
        # the file holds the one cooling map as several separate objects
        assert len({id(c) for c in channels}) == len(channels) > 1
        calls = []
        forms = ch._monomial_forms
        monkeypatch.setattr(ch, "_monomial_forms", lambda *a: calls.append(a[0].label) or forms(*a))
        ch.run(circ, np.eye(16, dtype=complex) / 16)
        ch.run(circ, np.eye(16, dtype=complex) / 16)
        assert calls == ["W"]

    def test_shuffle_matches_dense_file(self, tmp_path, capsys, densify):
        problem, circuit_path, _ = self._synth(tmp_path, capsys)
        with open(circuit_path) as fh:
            circ = circuit_from_json(json.load(fh))
        dense = Circuit(tuple(densify(circ)), circ.space)
        dense_path = write_json(tmp_path, "dense.json", circuit_to_json(dense))
        outs = []
        for path in (circuit_path, dense_path):
            main(["simulate", path, "--problem", problem, "--shuffle", "--trials", "4", "--seed", "3"])
            outs.append(json.loads(capsys.readouterr().out)["certificates"])
        framed, reference = outs
        assert framed["orders"] == reference["orders"] == 4
        assert framed["final_rank"] == reference["final_rank"] == 1
        assert abs(framed["final_distance"] - reference["final_distance"]) < 1e-10
        assert framed["frame_defect"] < 1e-12 and reference["frame_defect"] is None


def _simulate_cases(tmp_path, capsys):
    """(circuit, problem) for the framed Dicke(4, 2) FTS circuit and the
    frameless rfts circuit of the 5-cycle."""
    dicke = dicke_problem(tmp_path)
    fts_circuit = str(tmp_path / "fts.json")
    assert main(["synth", "fts", dicke, "--circuit", fts_circuit, "--force"]) == 0
    cycle = os.path.join(PROBLEMS, "graph_cycle5.json")
    rfts_circuit = str(tmp_path / "rfts.json")
    assert main(["synth", "rfts", cycle, "--circuit", rfts_circuit, "--trials", "1"]) == 0
    capsys.readouterr()
    return {"fts": (fts_circuit, dicke), "rfts": (rfts_circuit, cycle)}


class TestSimulatePaths:
    """Which run `simulate` takes, and the points it computes: I/D through a
    framed circuit as its weight vector, every other input dense, and the
    trajectory points only for a --trajectory file."""

    @pytest.mark.parametrize("case, extra, method", [
        ("fts", [], "diagonal"),
        ("fts", ["--initial", "random"], "dense"),
        ("rfts", [], "dense"),
    ], ids=["fts-mixed", "fts-random", "rfts-mixed"])
    def test_trajectory_leaves_final_point(self, case, extra, method, tmp_path, capsys):
        circuit, problem = _simulate_cases(tmp_path, capsys)[case]
        certs = []
        for traj in ([], ["--trajectory", str(tmp_path / "traj.csv")]):
            assert main(["simulate", circuit, "--problem", problem, "--seed", "2"] + extra + traj) == 0
            certs.append(json.loads(capsys.readouterr().out)["certificates"])
        plain, traced = certs
        assert plain["method"] == traced["method"] == method
        assert plain["final_distance"] == traced["final_distance"] < 1e-9
        assert plain["final_rank"] == traced["final_rank"] == 1

    @pytest.mark.parametrize("case", ["fts", "rfts"])
    def test_one_distance_per_order(self, case, tmp_path, capsys, monkeypatch):
        from qlstab import channels as ch

        circuit, problem = _simulate_cases(tmp_path, capsys)[case]
        calls = []
        dist = ch.trace_distance_to_pure_on
        monkeypatch.setattr(ch, "trace_distance_to_pure_on", lambda *a: calls.append(1) or dist(*a))
        # the FTS circuit is not robust: some shuffled orders miss psi
        rc = main(["simulate", circuit, "--problem", problem, "--shuffle", "--trials", "6", "--seed", "3"])
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert rc == (0 if cert["final_distance"] < 1e-8 else 1)
        assert len(calls) == cert["distinct_orders"] > 1

    @pytest.mark.parametrize("case", ["fts", "rfts"])
    def test_worst_order_reruns_to_final_distance(self, case, tmp_path, capsys):
        from qlstab import channels as ch

        circuit, problem = _simulate_cases(tmp_path, capsys)[case]
        # the FTS circuit is not robust: some shuffled orders miss psi
        rc = main(["simulate", circuit, "--problem", problem, "--shuffle", "--trials", "6", "--seed", "3"])
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert rc == (0 if cert["final_distance"] < 1e-8 else 1)
        with open(circuit) as fh:
            circ = circuit_from_json(json.load(fh))
        order = cert["worst_order"]
        assert sorted(order) == list(range(len(circ)))
        psi = load_problem(problem)[0].psi
        d = circ.space.total_dim
        rerun = Circuit(tuple(circ.steps[i] for i in order), circ.space)
        last = ch.run(rerun, np.eye(d, dtype=complex) / d, target=psi, record=False)[1][-1]
        assert abs(last.trace_distance - cert["final_distance"]) < 1e-14

    def test_no_target_reports_no_worst_order(self, tmp_path, capsys):
        circuit, _ = _simulate_cases(tmp_path, capsys)["fts"]
        assert main(["simulate", circuit]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert cert["final_distance"] is cert["worst_order"] is None
        assert (cert["method"], cert["final_rank"]) == ("diagonal", 1)
