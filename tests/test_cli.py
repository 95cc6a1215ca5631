import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ckn4 import reduction
from ckn4.cli import COMMANDS, build_parser, load_h_csv, main
from ckn4.reduction import BUILTIN_H
from ckn4.spectrum import SGrid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_pass(capsys):
    code, out, _ = run(capsys, "constants", "--N", "5", "--alpha", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["passed"]
    assert rep["data"]["pstar"] == 4.0
    assert rep["data"]["kernel_dim"] == 1
    assert rep["tolerances"]["el_residual"] == 1e-9


def test_constants_usage_error(capsys):
    code, _, err = run(capsys, "constants", "--N", "3", "--alpha", "0")
    assert code == 2
    assert "AlphaOutOfRange" in err


def test_constants_even_case(capsys):
    code, out, _ = run(capsys, "constants", "--N", "5", "--alpha", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["kernel_dim"] == 6
    names = [c["name"] for c in rep["checks"]]
    assert "reduces_to_unweighted" in names


def test_reports_byte_stable(capsys):
    _, out1, _ = run(capsys, "constants", "--N", "7", "--alpha", "-2")
    _, out2, _ = run(capsys, "constants", "--N", "7", "--alpha", "-2")
    assert out1 == out2


def test_verify_extremal_and_injected_failure(capsys):
    code, out, _ = run(capsys, "verify-extremal", "--N", "5", "--alpha", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["el_residual_sup"] < 1e-9
    code, out, _ = run(capsys, "verify-extremal", "--N", "5", "--alpha", "1",
                       "--perturb-amplitude", "1.01")
    assert code == 1
    rep = json.loads(out)
    assert not rep["passed"]


def test_verify_extremal_henon(capsys):
    code, out, _ = run(capsys, "verify-extremal", "--N", "7", "--alpha", "-2")
    assert code == 0


def test_transform_check(capsys):
    code, out, _ = run(capsys, "transform-check", "--N", "6", "--alpha", "-1")
    assert code == 0
    rep = json.loads(out)
    assert all(c["passed"] for c in rep["checks"])
    assert {r["profile"] for r in rep["data"]["identities"]} == {"extremal", "gaussian"}


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "5", "--alpha", "1",
                       "--mode", "0", "--num-eigs", "4", "--nodes", "96")
    assert code == 0
    rep = json.loads(out)
    data = rep["data"]
    assert data["k"] == 0 and data["nodes"] == 96
    assert len(data["eigenvalues"]) == 4
    assert data["eigenvalues"][0] == pytest.approx(1.0, abs=1e-8)
    assert len(data["residuals"]) == 4
    # the discretization error against the closed-form spectrum
    assert len(data["exact_rel_errors"]) == 4
    assert max(data["exact_rel_errors"]) <= 1e-7


def test_kernel_command(capsys):
    code, out, _ = run(capsys, "kernel", "--N", "7", "--alpha", "-2",
                       "--k-max", "3", "--nodes", "96")
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["kernel_dim"] == 28
    assert all(0.0 <= mode["exact_rel_error_max"] <= 1e-7 for mode in rep["data"]["modes"])


def test_scan_alpha(capsys):
    code, out, _ = run(capsys, "kernel", "--N", "7",
                       "--scan-alpha=-2.5:-1.5:0.5", "--k-max", "2", "--nodes", "96")
    assert code == 0
    reps = json.loads(out)
    assert [r["data"]["alpha"] for r in reps] == [-2.5, -2.0, -1.5]
    assert [r["data"]["kernel_dim"] for r in reps] == [1, 28, 1]


@pytest.mark.parametrize("spec", ["1:2:0", "1.5:1:0.25", "1:2:0.5:1", "1:inf:0.5"])
def test_scan_alpha_rejects_bad_range(capsys, spec):
    code, out, err = run(capsys, "kernel", f"--scan-alpha={spec}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --scan-alpha") and "Traceback" not in err


def test_scan_alpha_point_cap(capsys, monkeypatch):
    # 10^12 points must be refused before the alpha list exists or any
    # report runs; the guards turn an uncapped build into an immediate
    # failure instead of a list that exhausts memory
    import builtins

    from ckn4 import cli

    def guarded_range(*args):
        r = builtins.range(*args)
        if len(r) > cli.MAX_SCAN_POINTS:
            raise AssertionError(f"alpha list of {len(r)} points built")
        return r

    def no_report(*args, **kwargs):
        raise AssertionError("per-alpha report started")

    monkeypatch.setattr(cli, "range", guarded_range, raising=False)
    monkeypatch.setattr(cli, "_run_one", no_report)
    code, out, err = run(capsys, "kernel", "--scan-alpha=0:1:1e-12")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --scan-alpha") and "10000 points" in err


def test_verify_extremal_star_integral_failure_is_typed(capsys):
    # near alpha -> 2 the head/tail-corrected star integral comes out negative
    code, out, err = run(capsys, "verify-extremal", "--N", "5", "--alpha", "1.97068")
    assert code == 2
    assert out == ""
    assert err.startswith("error: QuadratureFailure") and "alpha=1.97068" in err


def test_remainder_csv(capsys):
    code, out, _ = run(capsys, "remainder", "--N", "5", "--alpha", "1",
                       "--nodes", "128", "--t-values", "0.001", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,quotient,dist"
    t, q, d = (float(x) for x in lines[1].split(","))
    assert t == 1e-3 and 0 < q < 1


def test_branch_command(capsys):
    code, out, _ = run(capsys, "branch", "--N", "8", "--a", "0.3", "--grid-n", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["observed_order"] >= 2.0


def test_perturb_command(capsys, tmp_path):
    outfile = tmp_path / "perturb.json"
    code, _, _ = run(capsys, "perturb", "--N", "5", "--alpha", "1",
                     "--eps", "1e-3", "--nodes", "128", "--out", str(outfile))
    assert code == 0
    rep = json.loads(outfile.read_text())
    assert rep["passed"]
    assert rep["data"]["residual"] < 1e-6
    assert rep["data"]["positive"]
    assert len(rep["data"]["gamma_curve"]) == 33
    diag = rep["diagnostics"]
    assert diag["quad_nodes"] == SGrid.build(128).n
    assert diag["basis_size"] == 128
    assert 0 < diag["kept_rank"] <= diag["basis_size"]
    # lambda* came from the root solve on l
    assert diag["lambda_star_polished"] is True
    assert diag["polish_scales"] == reduction.POLISH_POINTS - 2
    assert 0.0 <= diag["polish_l_ratio"] < 1e-10
    assert "energy_window_nodes" not in diag
    assert "lambda_star_polished" not in rep["data"]


def test_perturb_at_large_q_prints_no_warning(capsys):
    # at (3, 1.95) q = 40 and exp_bump is evaluated out to r = e^480, where
    # r*r once overflowed; a RuntimeWarning would raise here
    code, _, err = run(capsys, "perturb", "--N", "3", "--alpha", "1.95")
    assert code in (0, 1, 2)
    assert "Warning" not in err and "Traceback" not in err


def test_perturb_contraction_failure_names_first_scale(capsys, tmp_path):
    # h = 1 with eps = -0.9 scales the nonlinearity by 0.1 at every scale:
    # the solution is 0.1^{-1/2} U_lam, too far from U_lam for the frozen
    # Jacobian, whose iteration grows by a factor 1.27 per sweep at every
    # scale; the lockstep solve names the smallest scale of the Gamma curve
    h_file = tmp_path / "h.csv"
    h_file.write_text("r,h\n1e-200,1\n1e200,1\n")
    code, out, err = run(capsys, "perturb", "--N", "5", "--alpha", "1",
                         "--h-file", str(h_file), "--eps", "-0.9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ContractionFailure: contraction factor 1.27")
    assert err.rstrip().endswith("at scale 0.01")


def test_perturb_converges_to_rounding_floor(capsys):
    # M = 55, ||U||_alpha = 5.6e17: the fixed point contracts by 1e-3 or less
    # per sweep and then stalls at the rounding floor of that norm, far above
    # the absolute tol; such a step counts as converged, so the report is
    # produced and only the absolute residual check fails
    code, out, _ = run(capsys, "perturb", "--N", "10", "--alpha", "1.7")
    assert code == 1
    rep = json.loads(out)
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == ["residual_small"]
    assert rep["data"]["contraction_factor"] < 1e-2
    assert rep["diagnostics"]["lambda_star_polished"]


@pytest.mark.parametrize("N, a", [("9", "-4.8"), ("4", "0.0504")])
def test_perturb_next_to_M4(capsys, N, a):
    # M = 4.06 and 4.05: with |Delta u|^2 integrated on a truncated window,
    # the residual check failed and lambda* landed on the curve's end, 0.0178
    code, out, _ = run(capsys, "perturb", "--N", N, "--alpha", a)
    assert code == 0
    rep = json.loads(out)
    assert 0.1 < rep["data"]["lambda_star"] < 10.0
    assert rep["data"]["residual"] < 1e-6


@pytest.mark.parametrize("N, a", [("5", "1.9"), ("10", "1.8")])
def test_perturb_large_M_is_typed(capsys, N, a):
    # M = 62 and 82: s^(M-1) overflows at the grid's outer edge
    code, out, err = run(capsys, "perturb", "--N", N, "--alpha", a)
    assert code == 2
    assert out == ""
    assert err.startswith("error: QuadratureFailure: perturbation grid")
    assert f"N={N}" in err and "M=" in err
    assert "infs or NaNs" not in err and "Traceback" not in err


def test_h_file_loading(tmp_path):
    r = np.logspace(-3, 2, 400)
    path = tmp_path / "h.csv"
    body = "r,h\n" + "\n".join(f"{x},{BUILTIN_H['exp_bump'](x)}" for x in r)
    path.write_text(body)
    h = load_h_csv(str(path))
    rr = np.logspace(-2, 1, 50)
    assert np.allclose(h(rr), BUILTIN_H["exp_bump"](rr), atol=2e-4)
    assert h(1e6) == 0.0


def test_missing_h_file(capsys, tmp_path):
    missing = tmp_path / "absent.csv"
    code, out, err = run(capsys, "perturb", "--h-file", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --h-file") and str(missing) in err


def test_h_file_one_column_line(capsys, tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1.0\n2.0,3\n")
    code, out, err = run(capsys, "perturb", "--h-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"{path}: line 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["constants", "--N", "12", "--alpha", "1.99"],
    ["verify-extremal", "--N", "12", "--alpha", "1.93644"],
    ["transform-check", "--N", "12", "--alpha", "1.93644"],
])
def test_float_range_edge_is_typed(capsys, argv):
    # the normalization constant, or |c|^{p*} of the extremal's coefficient,
    # overflows a float at these points
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "N=12" in err and f"alpha={argv[-1]}" in err


# the flags each subcommand's code reads
COMMAND_FLAGS = {
    "constants": {"--N", "--alpha"},
    "verify-extremal": {"--N", "--alpha", "--lam", "--perturb-amplitude"},
    "transform-check": {"--N", "--alpha"},
    "spectrum": {"--N", "--alpha", "--mode", "--num-eigs", "--nodes"},
    "kernel": {"--N", "--alpha", "--k-max", "--nodes"},
    "remainder": {"--N", "--alpha", "--nodes", "--t-values"},
    "perturb": {"--N", "--alpha", "--eps", "--h", "--h-file", "--nodes"},
    "branch": {"--N", "--a", "--grid-n"},
}


def expected_flags(name):
    flags = COMMAND_FLAGS[name] | {"--out"}
    if "--alpha" in flags:
        flags |= {"--scan-alpha"}
    if name in ("remainder", "perturb"):
        flags |= {"--format"}
    return flags


def test_help_lists_only_the_flags_each_command_reads(capsys):
    total = 0
    for name in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == expected_flags(name), name
        total += len(listed)
    assert total == 47


@pytest.mark.parametrize("argv", [
    ["constants", "--grid-n", "7"],
    ["verify-extremal", "--a", "0.3"],       # no abbreviation of --alpha either
    ["transform-check", "--format", "csv"],
    ["spectrum", "--eps", "5"],
    ["kernel", "--mode", "1"],
    ["remainder", "--k-max", "2"],
    ["perturb", "--lam", "2"],
    ["branch", "--alpha", "1"],
])
def test_unread_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("ckn4 ")]
    assert {argv[1] for argv in argvs} == set(COMMANDS)
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(argv[1:]).command == argv[1]
