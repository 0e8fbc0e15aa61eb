"""End-to-end CLI runs (in-process), file formats, and exit codes."""

import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import disclat.analysis
import disclat.experiments
import disclat.io
import disclat.solver
from disclat.cli import build_parser, main, parse_phi, phi_slug
from disclat.experiments import folded_init
from disclat.io import read_config, write_config
from disclat.lattice import LatticeGraph, build_constraints, dump_lattice

PHI5 = 2.0 * np.pi / 5.0


def test_parse_phi_selectors():
    assert parse_phi("5") == pytest.approx(2.0 * np.pi / 5.0)
    assert parse_phi("7") == pytest.approx(2.0 * np.pi / 7.0)
    assert parse_phi("1.0472") == pytest.approx(1.0472)
    with pytest.raises(ValueError):
        parse_phi("x")
    with pytest.raises(ValueError):
        parse_phi("7.0")       # radians out of (0, 2pi)
    with pytest.raises(ValueError):
        parse_phi("0")


def test_phi_slug():
    assert phi_slug("5") == "5"
    assert phi_slug("1.25") == "1p25"
    assert phi_slug("-1") == "m1"


def test_mesh_roundtrip(tmp_path):
    assert main(["mesh", "--eps-exp", "2", "--out", str(tmp_path)]) == 0
    g = LatticeGraph(4)
    buf = io.StringIO()
    dump_lattice(g, build_constraints(g, PHI5), buf)
    assert (tmp_path / "mesh_eps2.txt").read_text() == buf.getvalue()
    vertices = [line for line in buf.getvalue().splitlines() if line.startswith("v ")]
    assert len(vertices) == 15     # (4+1)(4+2)/2


def test_mesh_out_after_or_before_subcommand(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "mesh", "--eps-exp", "1"]) == 0
    assert main(["mesh", "--eps-exp", "1", "--out", str(b)]) == 0
    assert (a / "mesh_eps1.txt").read_text() == (b / "mesh_eps1.txt").read_text()


def test_minimize_outputs(tmp_path):
    code = main(["minimize", "--phi", "5", "--eps-exp", "2", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "config_eps2.txt") as fh:
        config, meta = read_config(fh)
    assert config.shape == (15, 2)
    assert meta["n"] == 4 and meta["phi"] == pytest.approx(PHI5)
    log = (tmp_path / "solve_eps2.csv").read_text().strip().split("\n")
    assert log[0] == "iter,energy,grad_inf,step_norm,tau"
    assert len(log) >= 3


def test_minimize_from_config_file(tmp_path):
    # warm restart from the dumped minimizer converges immediately
    main(["minimize", "--phi", "5", "--eps-exp", "2", "--out", str(tmp_path)])
    cfg = tmp_path / "config_eps2.txt"
    code = main([
        "minimize", "--phi", "5", "--eps-exp", "2",
        "--init", "file:%s" % cfg, "--out", str(tmp_path),
    ])
    assert code == 0
    log = (tmp_path / "solve_eps2.csv").read_text().strip().split("\n")
    assert len(log) <= 3     # header + at most initial state and one step


def test_penalized_minimize_dump_names_its_penalty(tmp_path):
    code = main(["minimize", "--eps-exp", "2", "--psi", "smoothed_abs",
                 "--kappa", "3", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "config_eps2.txt") as fh:
        header = fh.readline()
        fh.seek(0)
        _, meta = read_config(fh)
    assert header.endswith(" p=2 psi=smoothed_abs kappa=3 delta=0.01\n")
    assert meta["psi"] == "smoothed_abs"
    assert meta["kappa"] == 3.0 and meta["delta"] == 0.01


@given(st.data())
def test_config_roundtrip_is_bit_exact(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, -2.2250738585072e-309, 1.7e308, -1.7e308]),
    )
    shape = ((n + 1) * (n + 2) // 2, 2)
    config = data.draw(arrays(np.float64, shape, elements=values))
    buf = io.StringIO()
    write_config(buf, config, phi=PHI5, n=n, p=2.0, psi="zero")
    buf.seek(0)
    back, meta = read_config(buf)
    assert back.tobytes() == config.tobytes()
    assert meta["psi"] == "zero" and meta["p"] == 2.0 and meta["n"] == n


def test_sweep_csv(tmp_path):
    code = main(["sweep", "--phi", "5", "--eps-max-exp", "2", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep_phi5.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["eps_exp"] for r in rows] == ["1", "2"]
    assert all(r["converged"] == "1" for r in rows)
    assert rows[0]["p_eps"] == ""
    assert float(rows[1]["energy"]) == pytest.approx(2.0026120e-3, rel=1e-5)


def test_fold_study_csv(tmp_path):
    code = main(["fold-study", "--phi", "7", "--eps-exp", "2", "--max-folds", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fold_phi7.csv").read_text().strip().split("\n")
    assert lines[0] == "phi,folds,energy,min_det,nonpos_det_count"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv, name, summary",
    [(["sweep", "--eps-max-exp", "2"], "sweep_phi5.csv", ["eps=2^-1 ", "eps=2^-2 "]),
     (["fold-study", "--eps-exp", "2", "--max-folds", "1"], "fold_phi7.csv",
      ["folds=0 ", "folds=1 "])],
    ids=["sweep", "fold-study"],
)
def test_csv_alone_on_stdout_without_out(tmp_path, capsys, argv, name, summary):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "wrote %s" % (tmp_path / name)
    assert [line[:len(s)] for line, s in zip(lines[1:], summary)] == summary
    assert len(lines) == 1 + len(summary)
    with open(tmp_path / name, newline="") as fh:
        want = list(csv.DictReader(fh))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert list(csv.DictReader(io.StringIO(out, newline=""))) == want
    assert out == (tmp_path / name).read_text()


def test_fold_study_rejects_too_many_folds(tmp_path, capsys):
    # run_fold_study owns the range [0, 2^k - 1]; -1 and 2^k = 4 sit just outside
    for folds in ("9", "-1", "4"):
        code = main(["fold-study", "--phi", "7", "--eps-exp", "2",
                     "--max-folds", folds, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: max_folds must lie in")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())    # nothing was solved


def test_sweep_leaves_no_partial_csv(tmp_path, monkeypatch, capsys):
    # a writer that fails after its first line takes its file with it
    def failing_writer(fh, columns, rows):
        fh.write("phi,eps_exp\n")
        raise OSError("disk full")

    monkeypatch.setattr(disclat.io, "write_csv", failing_writer)
    code = main(["sweep", "--eps-max-exp", "2", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert not (tmp_path / "sweep_phi5.csv").exists()


def test_sweep_rejects_no_levels(tmp_path, capsys):
    # one rule, the library's, for every exponent below 1
    for k_max in ("0", "-1"):
        code = main(["sweep", "--eps-max-exp", k_max, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: k_max must be >= 1") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


def test_verify_subset_jsonl(tmp_path):
    code = main(["verify", "--check", "svd2", "--check", "laminate",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = [json.loads(line)
            for line in (tmp_path / "verify.jsonl").read_text().splitlines()]
    assert [r["check"] for r in rows] == ["svd2_reconstruction", "laminate"]
    for r in rows:
        assert r["pass"] is True
        assert "min_slack" in r


@pytest.mark.parametrize("off, code", [(None, 0), (2e-6, 1)], ids=["exact", "off"])
def test_verify_dist_so2_and_frustration(tmp_path, monkeypatch, off, code):
    # "exact" runs the grid oracle itself; "off" replaces it by the closed
    # form scaled off by the relative error `off`, past the check's bound 1e-6
    if off is not None:
        exact = disclat.analysis.dist_so2_squared
        monkeypatch.setattr(disclat.analysis, "dist_so2_grid",
                            lambda a: exact(a) * (1.0 + off))
    assert main(["verify", "--check", "dist_so2", "--check", "frustration",
                 "--out", str(tmp_path)]) == code
    rows = [json.loads(line)
            for line in (tmp_path / "verify.jsonl").read_text().splitlines()]
    assert [r["check"] for r in rows] == ["dist_so2_oracle", "frustration"]
    assert [r["pass"] for r in rows] == [off is None, True]
    assert set(rows[0]) == {"check", "pass", "min_slack", "max_rel_err"}
    assert set(rows[1]) == {"check", "pass", "min_slack", "control_energy"}
    if off is None:
        assert 0.0 < rows[0]["max_rel_err"] <= 1e-6
    else:
        assert rows[0]["max_rel_err"] == pytest.approx(off, rel=1e-6, abs=1e-15)
    assert rows[1]["control_energy"] <= 1e-14 and rows[1]["min_slack"] > 0.0


def test_verify_unknown_check(tmp_path, capsys):
    assert main(["verify", "--check", "bogus", "--out", str(tmp_path)]) == 2
    # the names are checked before any check runs
    assert main(["verify", "--check", "svd2", "--check", "bogus",
                 "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: unknown checks: bogus") == 2
    assert not any(tmp_path.iterdir())


def test_render_deterministic_and_copies(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    argv = ["render", "--phi", "5", "--eps-exp", "2", "--init", "fold:1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    one = (a / "render_eps2.svg").read_bytes()
    assert one == (b / "render_eps2.svg").read_bytes()
    assert one.startswith(b"<?xml")
    assert main(argv + ["--copies", "--out", str(c)]) == 0
    composite = (c / "render_eps2.svg").read_bytes()
    assert composite != one
    # five rotated copies of the 16 cells at phi = 2pi/5
    assert composite.count(b"<polygon") == 5 * one.count(b"<polygon")


@pytest.mark.parametrize(
    "argv, name, digest",
    [(["mesh", "--phi", "5", "--eps-exp", "3"], "mesh_eps3.txt",
      "6d8113815bb70fe59a54fbb28536bc70940f159822ec551287a224b9c45e4779"),
     (["render", "--phi", "5", "--eps-exp", "3", "--init", "fold:3", "--copies"],
      "render_eps3.svg",
      "b9b9e97c2d622800c2c3f4d0ed52169023cd760cc9987470fb0b41e8a79ac172"),
     (["verify", "--check", "svd2", "--check", "lemma_a1", "--check", "laminate",
       "--check", "rigidity", "--seed", "0"],
      "verify.jsonl",
      "20a85c5ee77f7d67db8b4c3a81f72b7a5ec7f10070eeb7892a5f112590191f18"),
     # full-lattice solves: cold folded starts through HessianPlan
     (["minimize", "--phi", "7", "--eps-exp", "4", "--init", "fold:3"], "config_eps4.txt",
      "9fe07353f22530ee80efad8569eede673edf26d5d8525707e340d8c385e07cf1"),
     (["minimize", "--phi", "7", "--eps-exp", "4", "--init", "fold:3"], "solve_eps4.csv",
      "70fa232e3e19a2a2d6c0eadb750ffc52b9ef8933cb9693a7120c31dc12e90342"),
     (["minimize", "--phi", "7", "--eps-exp", "4", "--init", "fold:3", "--psi", "smoothed_abs"],
      "config_eps4.txt",
      "fe2616a5904c0e8c814345f6589dd2d37e8d8143d2bd9d4138a67b5882eef3e2"),
     (["fold-study", "--phi", "7", "--eps-exp", "4", "--max-folds", "3"], "fold_phi7.csv",
      "4cda26bd295333be9c1e271ed434720ac65d0882c38b4d95caf1cd2f9fb759ed"),
     (["fold-study", "--phi", "7", "--eps-exp", "4", "--max-folds", "3", "--psi", "smoothed_abs"],
      "fold_phi7.csv",
      "467cad69f5e3fa505c681010cc3745badd4f5f1a550422ebb0fc936b26a1c8b0"),
     # even-half solves: prolonged starts through MirrorHessianPlan
     (["sweep", "--phi", "5", "--eps-max-exp", "5"], "sweep_phi5.csv",
      "7ee65926d0bff8a90f43698ed48f55ad366c35ac9759e98b361fa4423956b180"),
     (["sweep", "--phi", "7", "--eps-max-exp", "5"], "sweep_phi7.csv",
      "96d9b015d6ba28ec7982a7d714e459cd7cfceb87a37d0901ea9cbc56cf15ac2b"),
     (["sweep", "--phi", "5", "--eps-max-exp", "5", "--psi", "smoothed_abs"], "sweep_phi5.csv",
      "b17e6997b4fee9d57b156a67a0d30e8386f0cd7a3d0242d670fb8dff4a8e3e71"),
     (["sweep", "--phi", "7", "--eps-max-exp", "5", "--psi", "smoothed_abs"], "sweep_phi7.csv",
      "fb14d062adb05404adc354429841c7e2e8e73bf4e96647bfe221f1efe8ff898d")],
    ids=["mesh", "render", "verify", "minimize", "minimize-solve", "minimize-penalized",
         "fold-study", "fold-study-penalized", "sweep-5", "sweep-7", "sweep-5-penalized",
         "sweep-7-penalized"],
)
def test_output_bytes_are_pinned(tmp_path, argv, name, digest):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_config_dump_bytes_are_pinned():
    graph = LatticeGraph(8)
    buf = io.StringIO()
    write_config(buf, folded_init(graph, PHI5, 3), phi=PHI5, n=8, p=2.0, psi="zero")
    assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
            == "b110995dec50100095981681ffb87e5814a54739d50089674630e22047cfc232")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_render_nonfinite_config_exits_2(tmp_path, capsys, bad):
    main(["minimize", "--phi", "5", "--eps-exp", "2", "--out", str(tmp_path)])
    lines = (tmp_path / "config_eps2.txt").read_text().splitlines()
    lines[7] = "u 6 %s 0.25" % bad       # vertex 6 is free at N = 4
    init = tmp_path / "init.txt"
    init.write_text("\n".join(lines) + "\n")
    out = tmp_path / "svg"
    code = main(["render", "--phi", "5", "--eps-exp", "2",
                 "--init", "file:%s" % init, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "render_eps2.svg").exists()


def test_bad_init_spec_exits_2(tmp_path, capsys):
    code = main(["minimize", "--eps-exp", "2", "--init", "bogus",
                 "--out", str(tmp_path)])
    assert code == 2
    for spec in ("fold:x", "fold:1.5"):
        capsys.readouterr()
        assert main(["minimize", "--eps-exp", "2", "--init", spec,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fold init needs an integer count") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [None, "u 1 x 0\n", "u 0 0 0\nu 1 1 0\nu 1 0 1\n"],
    ids=["missing", "malformed", "repeated-id"],
)
def test_missing_init_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "init.txt"
    if text is not None:
        path.write_text(text)
    code = main(["minimize", "--eps-exp", "1", "--init", "file:%s" % path,
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read init file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [(["minimize", "--init", "linear:foo"], "unknown linear init mode 'foo'"),
     (["minimize", "--init", "file:{big}"],
      "config has shape (153, 2), expected (15, 2)"),
     (["render", "--init", "file:{big}"],
      "config has shape (153, 2), expected (15, 2)")],
    ids=["linear-mode", "minimize-file-size", "render-file-size"],
)
def test_library_rejects_input_exits_2(tmp_path, capsys, argv, message):
    # a 153-vertex (N = 16) dump against the 15 vertices of N = 4
    big = tmp_path / "big.txt"
    with open(big, "w") as fh:
        write_config(fh, LatticeGraph(16).pos, n=16)
    out = tmp_path / "out"
    argv = [a.format(big=big) for a in argv]
    assert main(argv + ["--eps-exp", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["minimize", "--eps-exp", "2"], ["sweep", "--eps-max-exp", "2"],
     ["fold-study", "--eps-exp", "2", "--max-folds", "1"]],
    ids=["minimize", "sweep", "fold-study"],
)
def test_minimize_reports_singular_system(tmp_path, monkeypatch, capsys, argv):
    # neither factorization yields a step, so the solve gives up: a failed
    # solve exits 1 from every command, not 2 like a rejected input
    monkeypatch.setattr(disclat.solver, "_lu_solve", lambda h, tau, b: None)
    monkeypatch.setattr(disclat.solver.BandLayout, "solve",
                        lambda self, h, tau, b: None)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("no usable step up to tau = 1e+08\n")
    assert not any(tmp_path.iterdir())


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "mesh" in capsys.readouterr().out


@pytest.mark.parametrize(
    "option", [["--grad-tol", "-1"], ["--grad-tol", "0"], ["--grad-tol", "nan"],
               ["--max-iter", "0"]],
)
def test_bad_solver_option_exits_2(tmp_path, capsys, option):
    code = main(["minimize", "--eps-exp", "2", "--out", str(tmp_path)] + option)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "config_eps2.txt").exists()     # nothing was solved


@pytest.mark.parametrize(
    "option, message",
    [(["--p", "inf"], "bond exponent"), (["--p", "nan"], "bond exponent"),
     (["--psi", "smoothed_abs", "--kappa", "nan"], "smoothed_abs"),
     (["--psi", "smoothed_abs", "--kappa", "inf"], "smoothed_abs"),
     (["--psi", "smoothed_abs", "--delta", "nan"], "smoothed_abs"),
     (["--psi", "smoothed_abs", "--delta", "inf"], "smoothed_abs"),
     (["--psi", "bogus"], "unknown psi variant 'bogus'")],
    ids=["p-inf", "p-nan", "kappa-nan", "kappa-inf", "delta-nan", "delta-inf",
         "psi-bogus"],
)
def test_nonfinite_material_law_exits_2(tmp_path, capsys, option, message):
    code = main(["sweep", "--phi", "5", "--eps-max-exp", "2", "--out", str(tmp_path)]
                + option)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not any(tmp_path.iterdir())        # nothing was solved


@pytest.mark.parametrize("option", [["--kappa", "3"], ["--delta", "-7"]],
                         ids=["kappa", "delta"])
@pytest.mark.parametrize(
    "argv",
    [["minimize", "--eps-exp", "2"],
     ["sweep", "--eps-max-exp", "2"],
     ["fold-study", "--eps-exp", "2", "--max-folds", "1"]],
    ids=["minimize", "sweep", "fold-study"],
)
def test_penalty_parameters_without_penalty_exit_2(tmp_path, capsys, argv, option):
    # without --psi smoothed_abs the bond law would silently ignore them
    assert main(argv + option + ["--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: kappa and delta need psi = smoothed_abs\n"
    assert not any(tmp_path.iterdir())        # nothing was solved


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--eps-max-exp", "2"],
     ["fold-study", "--eps-exp", "2", "--max-folds", "1"],
     ["minimize", "--eps-exp", "2"],
     ["render", "--eps-exp", "2", "--init", "fold:1"]],
    ids=["sweep", "fold-study", "minimize", "render"],
)
def test_phi_without_det1_map_exits_2(tmp_path, capsys, argv):
    # the det1 linear start needs sin(phi) > 0; phi = 4 lies in [pi, 2pi)
    code = main(argv + ["--phi", "4", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: det1 mode needs phi in (0, pi)")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())        # nothing was written


@pytest.mark.parametrize(
    "argv",
    [["verify", "--seed", "-2", "--check", "svd2"]],
    ids=["after"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be >= 0") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["minimize", "render"])
def test_fold_init_builds_one_level(tmp_path, lattice_builds, command):
    # the fold:<L> start reuses the command's level
    assert main([command, "--eps-exp", "2", "--init", "fold:2",
                 "--out", str(tmp_path)]) == 0
    assert lattice_builds == ["LatticeGraph", "ConstraintMap", "DofLayout"]


def test_mesh_builds_no_layout(tmp_path, lattice_builds):
    # the dump reads the graph and the constraint map only
    assert main(["mesh", "--eps-exp", "2", "--out", str(tmp_path)]) == 0
    assert lattice_builds == ["LatticeGraph", "ConstraintMap"]


@pytest.mark.parametrize("command", ["mesh", "minimize", "fold-study", "render"])
def test_negative_eps_exp_is_refused_by_the_lattice(tmp_path, capsys, command):
    # N = 2^-1 meets LatticeGraph's own rule; the CLI keeps no copy of it
    out = tmp_path / "out"
    assert main([command, "--eps-exp", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need an integer N >= 1, got 0.5\n"
    assert not out.exists()


def test_unallocatable_lattice_is_a_failed_run(tmp_path, capsys):
    # N = 2^50 asks numpy for 8 PiB, past the address space, so the
    # request fails at once without allocating
    out = tmp_path / "out"
    assert main(["mesh", "--eps-exp", "50", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_memory_error_is_a_failed_run(tmp_path, monkeypatch, capsys):
    # run_sweep re-raises it as the cause of its RuntimeError
    def out_of_memory(*args):
        raise MemoryError("cannot allocate the band")

    monkeypatch.setattr(disclat.experiments, "newton_minimize", out_of_memory)
    assert main(["sweep", "--eps-max-exp", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: sweep failed at eps = 2^-1: cannot allocate the band\n")
    assert not any(tmp_path.iterdir())


def test_plain_newton_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["minimize", "--eps-exp", "2", "--plain-newton",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


SUBCOMMANDS = {"mesh": ["mesh", "--eps-exp", "1"],
               "minimize": ["minimize", "--eps-exp", "1"],
               "sweep": ["sweep"],
               "fold-study": ["fold-study"],
               "render": ["render", "--eps-exp", "1"]}


def test_default_phi_per_subcommand():
    # the subcommands share parent parsers, whose actions are shared
    # objects; a default set through one would change every subcommand's
    parser = build_parser()
    assert {name: parser.parse_args(argv).phi for name, argv in SUBCOMMANDS.items()} == {
        "mesh": "5", "minimize": "5", "sweep": "5", "fold-study": "7", "render": "5"}


@pytest.mark.parametrize(
    "argv",
    [argv + ["--seed", "3"] for argv in SUBCOMMANDS.values()]
    + [["--seed", "3"] + argv for argv in SUBCOMMANDS.values()]
    + [["--seed", "-1", "verify", "--check", "svd2"], ["--seed", "3"]],
    ids=list(SUBCOMMANDS) + ["before-" + name for name in SUBCOMMANDS]
    + ["before-verify", "before-nothing"],
)
def test_seed_is_a_verify_option(tmp_path, capsys, argv):
    # only verify samples anything, and it takes --seed after its name
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    if argv[0] == "--seed":
        # refused where it stands, not read as the subcommand
        err = capsys.readouterr().err
        assert "error: argument --seed: goes after verify" in err
        assert not any(tmp_path.iterdir())


def test_render_draws_a_minimize_dump(tmp_path):
    # the way to draw a minimizer; these are the bytes that the former
    # render --solve wrote for the same run
    d = tmp_path / "d"
    assert main(["minimize", "--phi", "5", "--eps-exp", "3", "--init", "fold:1",
                 "--out", str(d)]) == 0
    assert main(["render", "--phi", "5", "--eps-exp", "3",
                 "--init", "file:%s" % (d / "config_eps3.txt"),
                 "--out", str(tmp_path)]) == 0
    assert (hashlib.sha256((tmp_path / "render_eps3.svg").read_bytes()).hexdigest()
            == "580e6c67cf5a71ac96de9326a2be6ec50db1ed1202c755e46edc41516bc7d773")


@pytest.mark.parametrize("keep_header, code", [(True, 2), (False, 0)],
                         ids=["other-phi", "no-phi"])
def test_file_init_must_match_phi(tmp_path, capsys, keep_header, code):
    # a 2pi/7 dump is refused as a 2pi/5 start; without a header it is taken
    main(["minimize", "--phi", "7", "--eps-exp", "2", "--out", str(tmp_path)])
    lines = (tmp_path / "config_eps2.txt").read_text().splitlines(keepends=True)
    assert lines[0].startswith("# phi=0.897")
    init = tmp_path / "init.txt"
    init.write_text("".join(lines if keep_header else lines[1:]))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["minimize", "--phi", "5", "--eps-exp", "2",
                 "--init", "file:%s" % init, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if keep_header:
        assert err.startswith("error: init file %s is for phi = 0.897" % init)
        assert err.count("\n") == 1 and not out.exists()
    else:
        assert err == "" and (out / "config_eps2.txt").exists()
