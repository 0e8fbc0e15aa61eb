"""End-to-end CLI runs (in-process), file formats, and exit codes."""

import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from disclat.cli import CliError, main, parse_phi, phi_slug
from disclat.experiments import folded_init
from disclat.io import read_config, write_config
from disclat.lattice import LatticeGraph, build_constraints, dump_lattice

PHI5 = 2.0 * np.pi / 5.0


def test_parse_phi_selectors():
    assert parse_phi("5") == pytest.approx(2.0 * np.pi / 5.0)
    assert parse_phi("7") == pytest.approx(2.0 * np.pi / 7.0)
    assert parse_phi("1.0472") == pytest.approx(1.0472)
    with pytest.raises(CliError):
        parse_phi("x")
    with pytest.raises(CliError):
        parse_phi("7.0")       # radians out of (0, 2pi)
    with pytest.raises(CliError):
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


def test_verify_unknown_check(tmp_path, capsys):
    assert main(["verify", "--check", "bogus", "--out", str(tmp_path)]) == 2
    # the names are checked before --all runs anything
    assert main(["verify", "--all", "--check", "bogus",
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
      "20a85c5ee77f7d67db8b4c3a81f72b7a5ec7f10070eeb7892a5f112590191f18")],
    ids=["mesh", "render", "verify"],
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


def test_bad_init_spec_exits_2(tmp_path):
    code = main(["minimize", "--eps-exp", "2", "--init", "bogus",
                 "--out", str(tmp_path)])
    assert code == 2


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
     (["--psi", "smoothed_abs", "--delta", "inf"], "smoothed_abs")],
    ids=["p-inf", "p-nan", "kappa-nan", "kappa-inf", "delta-nan", "delta-inf"],
)
def test_nonfinite_material_law_exits_2(tmp_path, capsys, option, message):
    code = main(["sweep", "--phi", "5", "--eps-max-exp", "2", "--out", str(tmp_path)]
                + option)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
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


@pytest.mark.parametrize(
    "argv",
    [argv + ["--seed", "3"] for argv in SUBCOMMANDS.values()]
    + [["--seed", "3"] + argv for argv in SUBCOMMANDS.values()]
    + [["--seed", "-1", "verify", "--check", "svd2"]],
    ids=list(SUBCOMMANDS) + ["before-" + name for name in SUBCOMMANDS]
    + ["before-verify"],
)
def test_seed_is_a_verify_option(tmp_path, argv):
    # only verify samples anything, and it takes --seed after its name
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2


def test_render_solve_writes_svg(tmp_path, capsys):
    argv = ["render", "--phi", "5", "--eps-exp", "2", "--init", "fold:1",
            "--solve", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    svg = (tmp_path / "render_eps2.svg").read_bytes()
    assert svg.startswith(b"<?xml") and b"<polygon" in svg


def test_render_solve_warns_when_not_converged(tmp_path, capsys):
    argv = ["render", "--phi", "5", "--eps-exp", "2", "--init", "fold:1",
            "--solve", "--max-iter", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == "warning: solve did not converge\n"
    assert (tmp_path / "render_eps2.svg").read_bytes().startswith(b"<?xml")
