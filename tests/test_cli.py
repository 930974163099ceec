import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qlstab import _linalg, channels, lie, mixing, states, subspaces
from qlstab import rfts as rfts_mod
from qlstab.cli import (
    CONSTRUCTORS,
    GLOBAL_FLAGS,
    REPRODUCTIONS,
    build_parser,
    channel_from_json,
    channel_to_json,
    circuit_from_json,
    circuit_to_json,
    load_problem,
    main,
)
from qlstab.channels import Circuit, make_channel


PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
# D = 128: a cycle whose robustness walk (1.6 MiB) outweighs the commutants
# `synth rfts` builds before it (384 KiB each)
CYCLE7 = {"state": {"constructor": {"name": "graph-cycle", "params": {"n": 7}}}}


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
        monkeypatch.setattr(_linalg, "MAX_BYTES", 4096)
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

    def test_cmi_default_region_b_outside_expansion(self, tmp_path, capsys):
        # on the 7-cycle the expansion of site 1 is {6, 7, 1, 2, 3}, so
        # region_b defaults to site 5, not to site 7 inside region_c
        cycle7 = {"state": {"constructor": {"name": "graph-cycle", "params": {"n": 7}}}}
        certs = []
        for options in ({}, {"options": {"region_b": [5]}}):
            assert main(["check", "cmi", write_json(tmp_path, "c7.json", {**cycle7, **options})]) == 0
            certs.append(json.loads(capsys.readouterr().out)["certificates"])
        assert certs[0] == certs[1]
        assert (certs[0]["region_b"], certs[0]["region_c"]) == ([5], [2, 3, 6, 7])
        assert certs[0]["cmi_bits"] < 1e-8

    def test_correlations_default_region_b_outside_expansion(self, tmp_path, capsys):
        # the default region_b needs an expansion disjoint from that of
        # region_a, where the paper's condition applies. On the 7-cycle the
        # expansion of site 1 is {6, 7, 1, 2, 3} and every other site's
        # meets it, so there is no default (exit 2); site 5, given, still
        # runs and says that the expansions meet
        cycle7 = {"state": {"constructor": {"name": "graph-cycle", "params": {"n": 7}}}}
        assert main(["check", "correlations", write_json(tmp_path, "c7.json", cycle7)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "disjoint from that of region_a" in captured.err
        assert main(["check", "correlations",
                     write_json(tmp_path, "c7.json", {**cycle7, "options": {"region_b": [5]}})]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert cert["region_b"] == [5] and cert["expansions_disjoint"] is False
        # on the 6-site line and the 10-cycle the default is site 6, whose
        # expansion ({4, 5, 6}, {4, ..., 8}) misses that of site 1
        for name, n in (("graph-line", 6), ("graph-cycle", 10)):
            problem = {"state": {"constructor": {"name": name, "params": {"n": n}}}}
            certs = []
            for options in ({}, {"options": {"region_b": [6]}}):
                path = write_json(tmp_path, "p.json", {**problem, **options})
                assert main(["check", "correlations", path]) == 0
                certs.append(json.loads(capsys.readouterr().out)["certificates"])
            assert certs[0] == certs[1]
            assert certs[0]["region_b"] == [6] and certs[0]["expansions_disjoint"] is True
            assert certs[0]["max_abs_covariance"] < 1e-8

    def test_correlations_without_default_region_b_exit_2(self, capsys):
        # on the 5-cycle every site is a neighbour of a neighbour of site 1;
        # the last site, the old default, gave a pass that said nothing
        rc = main(["check", "correlations", os.path.join(PROBLEMS, "graph_cycle5.json")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "input error" in captured.err and "expansion" in captured.err and "region_b" in captured.err
        assert "region_c" not in captured.err

    def test_cmi_without_default_region_b_names_options(self, capsys):
        # on the 5-cycle the expansion of any site is the whole cycle
        rc = main(["check", "cmi", os.path.join(PROBLEMS, "graph_cycle5.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "input error" in err and "expansion" in err and "region_b" in err and "region_c" in err

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
        assert capsys.readouterr().err == ("cap exceeded: commutant system of 32 x 128^2 x 5296 needs 124.1 GiB, "
                                           "capped at 1.0 GiB\n")

    def test_robustness_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # the 7-cycle's robustness walk (D = 128: a float64 I/D, a complex
        # random input and the workspace's buffers of the complex one, 1.6
        # MiB) one byte over the budget; the commutants that `synth rfts`
        # builds before it need 384 KiB each, and fit
        problem = write_json(tmp_path, "graph_cycle7.json", CYCLE7)
        need = 128**2 * (8 + 16 + 16 * rfts_mod.APPLY_BUFFERS)
        assert need == 1_703_936 > 393_216
        monkeypatch.setattr(_linalg, "MAX_BYTES", need - 1)
        assert main(["synth", "rfts", problem]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cap exceeded: robustness walk over 2 inputs of D = 128" in captured.err

    def test_ugen_generator_cap_exit_3(self, tmp_path, capsys):
        # VBS 6: 178 generators of size 728 would need 4.2 GiB; the cap is
        # decided from Schmidt ranks before any D x D array is built
        problem = write_json(tmp_path, "problem.json", {"state": {"constructor": {"name": "vbs1d",
                                                                                  "params": {"n": 6}}}})
        tracemalloc.start()
        rc = main(["check", "ugen", problem])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rc == 3 and peak < 50e6
        assert "cap exceeded: ugen certificate on 178 generators of size 728" in capsys.readouterr().err

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


# The guarded entry points: a command, and the start of the `what` of the
# guard under test, whose estimate is the largest on that path. "{tmp}/product.json"
# is |00> with one-site neighbourhoods, which the ugen certificate cannot
# decide, so the bracket closure runs.
GUARDED = [
    ("check qls {p}/dicke.json", "intersection on a"),
    ("check commuting-projectors {p}/dicke.json", "commutator on a"),
    ("check algebraic-rfts {p}/graph_cycle5.json", "commutant system of"),
    ("check ugen {p}/dicke.json", "ugen certificate on"),
    ("check ugen {tmp}/product.json", "exhaustive ugen pass of"),
    ("synth rfts {tmp}/graph_cycle7.json", "robustness walk over"),
    ("reproduce nonfactorizable-252", "superoperator of side"),
    ("mixing {p}/graph_cycle5.json", "identity defect of channel"),
    ("mixing {p}/graph_cycle5.json --ts 1", "eta samples of D ="),
]


class TestMemoryBudget:
    """Every refusal goes through `_linalg.check_budget` against the one
    budget `_linalg.MAX_BYTES`, with one message format."""

    @pytest.mark.parametrize("command, what", GUARDED,
                             ids=[c.replace("{p}/", "").replace("{tmp}/", "") for c, _ in GUARDED])
    def test_refuses_below_its_estimate_and_decides_at_it(self, command, what, tmp_path, capsys, monkeypatch):
        write_json(tmp_path, "product.json", {"space": {"dims": [2, 2]}, "neighborhoods": [[1], [2]],
                                              "state": {"vector": [[1, 0], [0, 0], [0, 0], [0, 0]]}})
        write_json(tmp_path, "graph_cycle7.json", CYCLE7)
        argv = command.format(p=PROBLEMS, tmp=tmp_path).split()
        estimates = []
        real = _linalg.check_budget

        def spy(nbytes, name):
            estimates.append((nbytes, name))
            real(nbytes, name)

        for module in (channels, lie, mixing, rfts_mod, subspaces):
            monkeypatch.setattr(module, "check_budget", spy)
        decided = main(argv)
        capsys.readouterr()
        assert decided in (0, 1)
        own = max(n for n, name in estimates if name.startswith(what))
        assert own == max(n for n, _ in estimates)
        first = next(name for n, name in estimates if n == own)
        assert first.startswith(what)

        monkeypatch.setattr(_linalg, "MAX_BYTES", own - 1)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"cap exceeded: {first} needs {own / 2**30:.1f} GiB, "
                                f"capped at {(own - 1) / 2**30:.1f} GiB\n")

        monkeypatch.setattr(_linalg, "MAX_BYTES", own)
        assert main(argv) == decided

    def test_dicke_5_2_closure_refused(self, tmp_path, capsys):
        # a degenerate h splits the certificate's edges, and the closure's
        # pass over 598 fresh directions would hold 3.5 GiB
        problem = write_json(tmp_path, "d52.json", {"state": {"constructor": {"name": "dicke",
                                                                              "params": {"n": 5, "k": 2}}}})
        assert main(["check", "ugen", problem]) == 3
        assert capsys.readouterr().err == ("cap exceeded: exhaustive ugen pass of 78 x 598 brackets of size 32 "
                                           "needs 3.5 GiB, capped at 1.0 GiB\n")


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
        # the framed circuit is proved for every input
        assert (cert["method"], cert["final_occupied"]) == ("occupied-set", [0])
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
        # decided by the Schmidt rate alone, as `check sss` is: no tolerance
        assert out["tolerances"] == {}

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

    def test_import_loads_no_scipy(self):
        # the package runs on numpy alone; scipy is only the tests' oracle
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, qlstab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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
        fam.eta_samples([1.0, 2.5])
        assert cert["applies"] == fam.applies > 0
        for got, t in zip(cert["eta_samples"], [1.0, 2.5], strict=True):
            one = fam.eta_sample(t, seed=5)
            assert got["t"] == t
            assert abs(got["lower"] - one.lower) <= 1e-14
            assert abs(got["upper"] - one.upper) <= 1e-13 * one.upper

    def test_mixing_family_reports_applies(self, capsys):
        rc = main(["mixing", "--family-sizes", "3", "4"])
        out = json.loads(capsys.readouterr().out)
        cert = out["certificates"]
        assert out["tolerances"] == {"gamma_slack": mixing.GAMMA_SLACK, "delta_cap": mixing.DELTA_CAP,
                                     "fit_ceiling": mixing.FIT_CEILING}
        fams = [mixing.CommutingResetFamily(list(i.witness_channels), i.space, i.psi)
                for i in (states.line_graph_state(3), states.line_graph_state(4))]
        rep = mixing.rapid_mixing_check(fams, ts=[1.5, 2.5, 4.0, 6.0])
        assert rc == (0 if rep.passed else 1)
        assert cert["applies"] == rep.applies > 0

    def test_mixing_graph_gibbs_is_unproven(self, tmp_path, capsys):
        # a mixed target fails the envelope's hypotheses, but the maps commute
        # and are idempotent: the witness distance is an exact lower bound
        path = write_json(tmp_path, "g.json", {
            "state": {"constructor": {"name": "graph-gibbs", "params": {"n": 3}}},
        })
        rc = main(["mixing", path, "--ts", "1", "2.5"])
        out = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert rc == 0
        cert = out["certificates"]
        assert cert["method"] == "unproven" and cert["intersection_dim"] == 8
        inst = states.graph_gibbs(3, beta=1.0)
        fam = mixing.CommutingResetFamily(list(inst.witness_channels), inst.space, inst.rho)
        for got, es in zip(cert["eta_samples"], fam.eta_samples([1.0, 2.5]), strict=True):
            assert (got["t"], got["lower"], got["upper"]) == (es.t, es.lower, 1.0)

    def test_mixing_non_idempotent_exit_2(self, tmp_path, capsys, monkeypatch):
        inst = states.line_graph_state(3)
        first = inst.witness_channels[0]
        kraus = [np.sqrt(0.8) * k for k in first.kraus] + [np.sqrt(0.2) * np.eye(first.local_dim)]
        chans = (make_channel(kraus, first.support),) + inst.witness_channels[1:]
        monkeypatch.setitem(CONSTRUCTORS, "graph-line", lambda p: replace(inst, witness_channels=chans))
        path = write_json(tmp_path, "g.json", {
            "state": {"constructor": {"name": "graph-line", "params": {"n": 3}}},
        })
        rc = main(["mixing", path, "--ts", "1"])
        assert rc == 2
        assert "channel 0 is not idempotent" in capsys.readouterr().err

    def test_mixing_family_without_fit_exit_2(self, capsys):
        rc = main(["mixing", "--family-sizes", "3", "4", "--ts", "60"])
        assert rc == 2
        assert "not enough usable samples" in capsys.readouterr().err

    @pytest.mark.parametrize("ts", [[-1], 5, ["x"], [1, float("nan")], [True]])
    def test_mixing_bad_ts_option_exit_2(self, ts, tmp_path, capsys):
        # eta is a trace distance; at t = -1 the closed form would read
        # lower 44.2 above upper 6.1
        path = write_json(tmp_path, "g.json", {
            "state": {"constructor": {"name": "graph-line", "params": {"n": 3}}}, "options": {"ts": ts},
        })
        rc = main(["mixing", path])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("input error: /options/ts: ")

    @pytest.mark.parametrize("argv, flag", [
        (["mixing", "{p}", "--ts", "nan"], "--ts"),
        (["mixing", "{p}", "--ts", "1", "-1"], "--ts"),
        (["mixing", "--family-sizes", "3", "4", "--ts", "inf"], "--ts"),
        (["mixing", "--no-go", "--samples", "0"], "--samples"),
        (["mixing", "--family-sizes", "0"], "--family-sizes"),
        (["mixing", "--family-sizes"], "--family-sizes"),
    ])
    def test_mixing_bad_flag_exit_2(self, argv, flag, capsys):
        problem = os.path.join(PROBLEMS, "graph_cycle5.json")
        with pytest.raises(SystemExit) as exc:
            main([a.format(p=problem) for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {flag}" in captured.err

    def test_mixing_without_problem_exit_2(self, capsys):
        assert main(["mixing"]) == 2
        assert "needs a problem file" in capsys.readouterr().err

    def test_mixing_kagome_2x2_refused_within_seconds(self, tmp_path, capsys):
        # D = 4096: the eta stacks would need 2.5 GiB; the proof runs first
        path = write_json(tmp_path, "k.json", {
            "state": {"constructor": {"name": "ccz-kagome", "params": {"cells_x": 2, "cells_y": 2}}},
        })
        start = time.perf_counter()
        rc = main(["mixing", path, "--ts", "1"])
        elapsed = time.perf_counter() - start
        assert rc == 3 and elapsed < 20
        assert capsys.readouterr().err == ("cap exceeded: eta samples of D = 4096, 1 at a time needs 2.5 GiB, "
                                           "capped at 1.0 GiB\n")


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
        assert (cert["method"], cert["final_occupied"]) == ("occupied-set", [0])
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
        assert out1["seed"] == 7
        assert out1 == out2


class TestGlobalFlags:
    """The four global flags mean the same before and after the subcommand."""

    @pytest.mark.parametrize("flag, text, value", [
        ("--tol", "1e-3", 1e-3), ("--seed", "7", 7), ("--threads", "1", 1),
        ("--output", "r.json", "r.json"),
    ])
    def test_before_and_after_parse_alike(self, flag, text, value):
        parser = build_parser()
        dest = flag.lstrip("-").replace("-", "_")
        command = ["check", "qls", "p.json"]
        before = parser.parse_args([flag, text] + command)
        after = parser.parse_args(command + [flag, text])
        assert getattr(before, dest) == getattr(after, dest) == value
        # the other flags keep their defaults either way
        for other, kw in GLOBAL_FLAGS.items():
            if other != flag:
                name = other.lstrip("-").replace("-", "_")
                assert getattr(before, name) == getattr(after, name) == kw["default"]

    def test_after_wins_over_before(self):
        args = build_parser().parse_args(["--seed", "3", "check", "qls", "p.json", "--seed", "5"])
        assert args.seed == 5

    def test_output_before_the_subcommand_writes_the_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["--seed", "3", "--output", str(out), "check", "qls", os.path.join(PROBLEMS, "dicke.json")]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text())["seed"] == 3

    def test_tol_before_the_subcommand_reaches_the_report(self, capsys):
        assert main(["--tol", "1e-3", "synth", "rfts", os.path.join(PROBLEMS, "graph_cycle5.json")]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["tol"] == 1e-3

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-1", "0", "tiny"])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_bad_tol_exits_2(self, text, where, capsys):
        command = ["check", "qls", os.path.join(PROBLEMS, "dicke.json")]
        argv = ["--tol", text] + command if where == "before" else command + ["--tol", text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--tol" in captured.err


    @pytest.mark.parametrize("text", ["0", "-1", "x"])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_bad_threads_exits_2(self, text, where, capsys):
        # `--threads 0` would bound nothing, so it is refused, not dropped
        command = ["check", "qls", os.path.join(PROBLEMS, "dicke.json")]
        argv = ["--threads", text] + command if where == "before" else command + ["--threads", text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --threads: must be a positive integer" in captured.err

    @pytest.mark.parametrize("argv, what", [
        ("synth rfts {p}/graph_cycle5.json --trials -3", "a non-negative integer"),
        ("simulate c.json --shuffle --trials 0", "a positive integer"),
        ("simulate c.json --shuffle --trials -2", "a positive integer"),
    ])
    def test_bad_trials_exits_2(self, argv, what, capsys):
        # a negative `synth --trials` would leave the sampled walk with the
        # identity order alone, and `simulate --trials 0` would run one order
        with pytest.raises(SystemExit) as exc:
            main(argv.format(p=PROBLEMS).split())
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --trials: must be {what}" in captured.err

    def test_zero_synth_trials_accepted(self):
        assert build_parser().parse_args(["synth", "rfts", "p.json", "--trials", "0"]).trials == 0


REPORT_KEYS = ["task", "pass", "verdicts", "certificates", "tolerances", "seed", "elapsed_seconds", "version"]

# one invocation of every command kind: (argv, exit code, tolerance keys);
# {p} is the problems directory and {tmp} the test's own. Exit code 2 is an
# input error, with no report
EVERY_COMMAND = [
    ("check qls {p}/dicke.json", 0, ["intersect_eig"]),
    ("check sss {p}/dicke.json", 0, []),
    ("check ugen {p}/dicke.json", 0, ["cluster_rtol"]),
    ("check commuting-projectors {p}/dicke.json", 1, ["tol"]),
    ("check matching-overlap {p}/graph_cycle5.json", 1, []),
    ("check algebraic-rfts {p}/graph_cycle5.json", 0, ["cluster_rtol"]),
    ("check matching-overlap-rfts {p}/graph_cycle5.json", 1, ["tol"]),
    # neither the 5-cycle nor Dicke(4, 2) has a subsystem whose expansion
    # misses that of site 1, so region_b has no default; the 6-site line
    # has one, site 6
    ("check correlations {p}/graph_cycle5.json", 2, None),
    ("check correlations {p}/dicke.json", 2, None),
    ("check correlations {tmp}/line6.json", 0, ["tol"]),
    ("check cmi {p}/dicke.json", 1, ["tol"]),
    ("synth fts {p}/dicke.json --circuit {tmp}/fts.json", 0, ["tol", "frame"]),
    ("synth fts {p}/ghz3.json", 1, ["cluster_rtol"]),
    ("synth rfts {p}/graph_cycle5.json", 0, ["tol"]),
    ("synth rfts {p}/ghz3.json", 1, ["cluster_rtol"]),
    ("simulate {tmp}/fts.json --problem {p}/dicke.json", 0, ["tol", "frame"]),
    ("mixing --no-go", 0, ["floor"]),
    ("mixing --family-sizes 3 4", 0, ["gamma_slack", "delta_cap", "fit_ceiling"]),
    ("mixing {p}/graph_cycle5.json --ts 1", 0, ["invariance", "commutator"]),
    ("schedule {p}/chain9_lattice.json", 0, []),
    ("reproduce chain-depth3", 0, []),
]


class TestReportPath:
    @pytest.mark.parametrize("command, code, tolerances", EVERY_COMMAND,
                             ids=[c.replace("{p}/", "").replace("{tmp}/", "") for c, _, _ in EVERY_COMMAND])
    def test_every_command_reports_alike(self, command, code, tolerances, tmp_path, capsys):
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        argv = command.format(p=PROBLEMS, tmp=tmp_path).split()
        if argv[0] == "simulate":
            assert main(["synth", "fts", os.path.join(PROBLEMS, "dicke.json"), "--circuit", argv[1]]) == 0
            capsys.readouterr()
        write_json(tmp_path, "line6.json", {"state": {"constructor": {"name": "graph-line", "params": {"n": 6}}}})
        rc = main(argv)
        captured = capsys.readouterr()
        if code == 2:
            assert rc == 2 and captured.out == "" and "input error" in captured.err
            return
        out = json.loads(captured.out, parse_constant=reject)
        assert list(out) == REPORT_KEYS
        assert out["task"].split()[0] == argv[0]
        assert rc == (0 if out["pass"] else 1) == code
        assert list(out["tolerances"]) == tolerances

    @pytest.mark.parametrize("command", [
        "synth rfts {p}/graph_cycle5.json",
        "synth fts {p}/dicke.json",
        "check matching-overlap-rfts {tmp}/bv.json",
    ], ids=["synth-rfts", "synth-fts", "check-matching-overlap-rfts"])
    def test_tol_decides_and_is_reported(self, command, tmp_path, capsys):
        # the verdicts read 1e-15 to 1e-12 at the default 1e-8; a 1e-30 tol
        # must reach the library and fail them, and the report names it
        write_json(tmp_path, "bv.json", {"state": {"constructor": {"name": "bv-chain"}}})
        argv = command.format(p=PROBLEMS, tmp=tmp_path).split()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["tol"] == 1e-8
        assert main(argv + ["--tol", "1e-30"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False and out["tolerances"]["tol"] == 1e-30


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
# 3-site chain, one shape rule of the problem file or one rule of a state
# vector or matrix; every one must end with exit code 2, not a traceback
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
    "cmi-region-c-out-of-range": ("cmi", {**_CHAIN3, "options": {"region_b": [3], "region_c": [7]}}),
    "cmi-region-c-not-a-list": ("cmi", {**_CHAIN3, "options": {"region_b": [3], "region_c": 2}}),
    "cmi-regions-overlap": ("cmi", {**_CHAIN3, "options": {"region_a": [1], "region_b": [1]}}),
    "cmi-region-c-overlaps-b": ("cmi", {**_CHAIN3, "options": {"region_b": [3], "region_c": [2, 3]}}),
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
    "vector-zero": ("qls", {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]], "state": {"vector": [[0.0, 0.0]] * 8}}),
    "vector-nan": ("sss", {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]],
                           "state": {"vector": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7}}),
    "matrix-zero": ("cmi", {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]],
                            "state": {"matrix": _pairs(np.zeros((8, 8)))}}),
    "matrix-not-hermitian": ("cmi", {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]],
                                     "state": {"matrix": _pairs(np.eye(8) / 8 + 0.1 * np.eye(8, k=1))}}),
    "matrix-not-psd": ("cmi", {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]],
                               "state": {"matrix": _pairs(np.diag([1.0, -0.5] + [0.0] * 6))}}),
    "matrix-infinite": ("cmi", {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]],
                                "state": {"matrix": _pairs(np.diag([np.inf] + [0.0] * 7))}}),
}

# lattice files for `schedule`, each malformed
MALFORMED_LATTICES = {
    "kagome-cells-y-missing": {"kind": "kagome", "cells_x": 2},
    "not-an-object": [1, 2],
    "unknown-kind": {"kind": "honeycomb"},
}


# lattice files that parse but that the lattice or its layering refuses,
# each with the text its message must hold
REFUSED_LATTICES = {
    "kagome-3x2-not-a-multiple-of-the-diameter": ({"kind": "kagome", "cells_x": 3, "cells_y": 2},
                                                  "periodic widths (3, 2)"),
    "graph2d-width-4": ({"kind": "graph2d", "width": 4}, "widths must be multiples of 5"),
    "kagome-cells-x-negative": ({"kind": "kagome", "cells_x": -1, "cells_y": 2}, "widths must be positive"),
    "chain-width-zero": ({"kind": "chain-next-nn", "width": 0}, "widths must be positive"),
}


# problems whose neighbourhoods leave subsystems out, with the subsystems
# (1-based) the refusal must name
UNCOVERED_NEIGHBORHOODS = {
    "vector": ({**_GHZ3, "neighborhoods": [[1, 2]]}, [3]),
    "constructor": ({**_CHAIN3, "neighborhoods": [[1, 2]]}, [3]),
    "empty": ({**_GHZ3, "neighborhoods": []}, [1, 2, 3]),
}


def _dicke(n, k):
    return {"state": {"constructor": {"name": "dicke", "params": {"n": n, "k": k}}}}


class TestMalformedProblem:
    @pytest.mark.parametrize("sub, n, k", [("sss", 3, 5), ("qls", 3, 5), ("qls", 4, -1)])
    def test_dicke_out_of_range_exit_2(self, sub, n, k, tmp_path, capsys):
        # k outside 0..n has no Dicke state; its vector would be NaN, on
        # which `check sss` reads Schmidt rank 1 and passes
        rc = main(["check", sub, write_json(tmp_path, "problem.json", _dicke(n, k))])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: /state/constructor/params") and "0 <= k <= n" in err

    @pytest.mark.parametrize("case", ["vector-nan", "vector-zero", "matrix-inf", "matrix-zero-trace"])
    def test_constructor_state_not_finite_or_zero_exit_2(self, case, tmp_path, capsys, monkeypatch):
        good = states.line_graph_state(3)
        bad = {"vector-nan": dict(psi=np.full(8, np.nan)), "vector-zero": dict(psi=np.zeros(8)),
               "matrix-inf": dict(psi=None, rho=np.diag([np.inf] + [0.0] * 7)),
               "matrix-zero-trace": dict(psi=None, rho=np.diag([0.5, -0.5] + [0.0] * 6))}[case]
        monkeypatch.setitem(CONSTRUCTORS, "broken", lambda p: replace(good, **bad))
        problem = {"state": {"constructor": {"name": "broken"}}}
        rc = main(["check", "qls", write_json(tmp_path, "problem.json", problem)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: /state/constructor/params") and "not finite" in err

    @pytest.mark.parametrize("case, command", [
        ("vector", "check qls"), ("vector", "check algebraic-rfts"), ("vector", "check matching-overlap-rfts"),
        ("vector", "synth rfts"), ("constructor", "check qls"), ("empty", "check qls"), ("empty", "check sss"),
    ])
    def test_uncovered_neighborhoods_exit_2(self, case, command, tmp_path, capsys):
        # these ended in the checks' ValueError traceback, and `check sss`
        # passed or failed on a structure no other check accepts
        problem, uncovered = UNCOVERED_NEIGHBORHOODS[case]
        rc = main(command.split() + [write_json(tmp_path, "problem.json", problem)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: /neighborhoods") and f"subsystems {uncovered}" in err

    def test_commuting_projectors_one_neighborhood_exit_2(self, tmp_path, capsys):
        problem = {"space": {"dims": [2, 2]}, "neighborhoods": [[1, 2]],
                   "state": {"vector": [[0.5 ** 0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5 ** 0.5, 0.0]]}}
        rc = main(["check", "commuting-projectors", write_json(tmp_path, "problem.json", problem)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: /neighborhoods") and "at least two" in err

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

    def test_matrix_state_scaled_to_unit_trace(self, tmp_path):
        # the well-formed sibling of the matrix cases: twice the GHZ projector
        ghz = np.zeros(8)
        ghz[[0, 7]] = 0.5 ** 0.5
        problem = {**_GHZ3, "neighborhoods": [[1, 2], [2, 3]], "state": {"matrix": _pairs(2 * np.outer(ghz, ghz))}}
        inst, _ = load_problem(write_json(tmp_path, "problem.json", problem))
        assert np.allclose(inst.rho, np.outer(ghz, ghz), atol=1e-15)

    @pytest.mark.parametrize("case", sorted(MALFORMED_LATTICES))
    def test_schedule_exit_2(self, case, tmp_path, capsys):
        rc = main(["schedule", write_json(tmp_path, "lattice.json", MALFORMED_LATTICES[case])])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REFUSED_LATTICES))
    def test_schedule_refused_lattice_exit_2(self, case, tmp_path, capsys):
        lattice, text = REFUSED_LATTICES[case]
        rc = main(["schedule", write_json(tmp_path, "lattice.json", lattice)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"input error: {lattice['kind']} lattice: ValueError") and text in err

    @pytest.mark.parametrize("initial", ["nosuch.json", "wrong-length.json", "zero.json"])
    def test_simulate_initial_exit_2(self, initial, tmp_path, capsys):
        circuit = write_json(tmp_path, "circuit.json", {"dims": [2, 2], "steps": [{"support": [2], "kraus": [_X]}]})
        write_json(tmp_path, "wrong-length.json", [[1.0, 0.0], [0.0, 0.0]])
        write_json(tmp_path, "zero.json", [[0.0, 0.0]] * 4)
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

    def test_channel_outside_frame_region_exit_2(self, tmp_path, capsys):
        from qlstab import channels as ch
        from qlstab.hilbert import uniform_space

        # the frame covers qubit 1 only; the channel acts on qubit 2
        sp = uniform_space(2)
        frame = ch.Frame(sp, [0], np.eye(2), 1, 1, np.eye(2)[0])
        circ = Circuit((make_channel([np.array([[0, 1], [1, 0]])], [1], label="X"),), sp, frame)
        path = write_json(tmp_path, "outside.json", circuit_to_json(circ))
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert "'X'" in err and "outside the frame region" in err

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
                assert np.array_equal(a.perm, b.perm)
            else:
                assert all(ka.tobytes() == kb.tobytes() for ka, kb in zip(a.kraus, b.kraus))

    @pytest.mark.parametrize("constructor", [{"name": "graph-line", "params": {"n": 3}}, {"name": "ccz-triangle"}],
                             ids=["graph-line3", "ccz-triangle"])
    def test_one_step_circuit_proved_and_framed(self, constructor, tmp_path, capsys):
        # the cooling map alone reaches psi, so the circuit has no permutation
        # step; it keeps its frame, in the report's proof and in the file
        problem = write_json(tmp_path, "problem.json", {"state": {"constructor": constructor}})
        circuit_path = str(tmp_path / "circuit.json")
        assert main(["synth", "fts", problem, "--circuit", circuit_path]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert cert["steps"] == 1
        assert (cert["method"], cert["final_occupied"]) == ("occupied-set", [0])
        with open(circuit_path) as fh:
            data = json.load(fh)
        assert "frame" in data and not any("permutation" in s for s in data["steps"])
        assert main(["simulate", circuit_path, "--problem", problem]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert (cert["method"], cert["final_rank"]) == ("diagonal", 1)

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
        # the dense run takes its distances from an eigensolve, the diagonal
        # run from the secular equation; count both
        for name in ("trace_distance_to_pure_on", "diagonal_distance_to_pure_on"):
            dist = getattr(ch, name)
            monkeypatch.setattr(ch, name, lambda *a, dist=dist: calls.append(1) or dist(*a))
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
        rerun = replace(circ, steps=tuple(circ.steps[i] for i in order))
        last = ch.run(rerun, np.eye(d, dtype=complex) / d, target=psi, record=False)[1][-1]
        assert abs(last.trace_distance - cert["final_distance"]) < 1e-14

    @pytest.mark.parametrize("case, other", [("fts", "rfts"), ("rfts", "fts")])
    def test_target_of_other_dimension_exit_2(self, case, other, tmp_path, capsys):
        # the FTS circuit has D = 16 and the 5-cycle target D = 32; the
        # frameless circuit once indexed past the shorter target
        cases = _simulate_cases(tmp_path, capsys)
        rc = main(["simulate", cases[case][0], "--problem", cases[other][1]])
        captured = capsys.readouterr()
        assert rc == 2 and not captured.out
        assert captured.err.startswith("input error: --problem")

    def test_no_target_reports_no_worst_order(self, tmp_path, capsys):
        circuit, _ = _simulate_cases(tmp_path, capsys)["fts"]
        assert main(["simulate", circuit]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"]
        assert cert["final_distance"] is cert["worst_order"] is None
        assert (cert["method"], cert["final_rank"]) == ("diagonal", 1)
