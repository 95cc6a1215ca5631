import json

import numpy as np
import pytest

from ckn4.cli import load_h_csv, main
from ckn4.reduction import BUILTIN_H


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


def test_kernel_command(capsys):
    code, out, _ = run(capsys, "kernel", "--N", "7", "--alpha", "-2",
                       "--k-max", "3", "--nodes", "96")
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["kernel_dim"] == 28


def test_scan_alpha(capsys, monkeypatch):
    monkeypatch.setenv("CKN_LAB_THREADS", "2")
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
    # 10^12 points must be refused before the alpha list or the worker pool
    # exists; the guards turn an uncapped build into an immediate failure
    # instead of a list that exhausts memory
    import builtins

    from ckn4 import cli

    def guarded_range(*args):
        r = builtins.range(*args)
        if len(r) > cli.MAX_SCAN_POINTS:
            raise AssertionError(f"alpha list of {len(r)} points built")
        return r

    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool created")

    monkeypatch.setattr(cli, "range", guarded_range, raising=False)
    monkeypatch.setattr(cli.cf, "ThreadPoolExecutor", no_pool)
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
