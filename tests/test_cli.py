import argparse
import json
import math
import subprocess
import sys

import pytest

from valdist.cli import build_parser, main


def run_cli(*args):
    cmd = [sys.executable, "-m", "valdist", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps([[0, 0], [0, 0], [1, 0]]))
    return path


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps([[1, 0], [-3, 0], [0, 0], [1, 0]]))
    return path


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "profile" in cp.stdout and "fta-witness" in cp.stdout


def test_profile_square(tmp_path, square_file):
    out = tmp_path / "prof"
    cp = run_cli(
        "profile", "--function", str(square_file), "--a", "0,inf",
        "--rmin", "1", "--rmax", "100", "--points", "16", "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    csv_inf = (out / "profile_inf.csv").read_text()
    lines = csv_inf.splitlines()
    assert lines[0] == "r,n,nbar,N,Nbar,m,T"
    assert len(lines) == 17
    for line in lines[1:]:
        fields = line.split(",")
        r, t_val = float(fields[0]), float(fields[6])
        assert abs(t_val - 2 * math.log(r)) <= 1e-6
    assert (out / "profile_0.csv").exists()
    assert "\r" not in csv_inf


def test_profile_deterministic(tmp_path, square_file):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        cp = run_cli(
            "profile", "--function", str(square_file), "--a", "0,1,inf",
            "--rmin", "1", "--rmax", "1000", "--points", "12", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]


def test_profile_empty_targets_is_usage_error(square_file, tmp_path):
    cp = run_cli("profile", "--function", str(square_file), "--a", "", "--out", str(tmp_path / "x"))
    assert cp.returncode == 2
    assert "target" in cp.stderr


def test_profile_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cp = run_cli("profile", "--function", str(bad), "--a", "0", "--out", str(tmp_path / "x"))
    assert cp.returncode == 2


def test_verify_degree_pass(tmp_path):
    poly = tmp_path / "q.json"
    poly.write_text(json.dumps([[2, 0], [-1, 0], [0, 0], [0, 0], [0, 0], [3, 0]]))
    report = tmp_path / "deg.json"
    cp = run_cli(
        "verify", "degree", "--poly", str(poly),
        "--rmin", "10", "--rmax", "1000", "--points", "24", "--out", str(report),
    )
    assert cp.returncode == 0, cp.stderr
    data = json.loads(report.read_text())
    assert data["rounded_degree"] == 5
    assert abs(data["slope"] - 5) <= 1e-3
    assert data["verdict"] == "pass"


def test_verify_smt_too_few_targets(square_file):
    cp = run_cli("verify", "smt", "--function", str(square_file), "--a", "0,1")
    assert cp.returncode == 2


def test_verify_smt_pass(square_file, tmp_path):
    report = tmp_path / "smt.json"
    cp = run_cli(
        "verify", "smt", "--function", str(square_file), "--a", "0,1,inf",
        "--points", "16", "--out", str(report),
    )
    assert cp.returncode == 0, cp.stderr
    data = json.loads(report.read_text())
    assert data["theorem"] == "smt" and data["verdict"] == "pass"
    assert len(data["series"]) == 16


def test_verify_remark_on_constant_is_usage_error(tmp_path):
    poly = tmp_path / "c.json"
    poly.write_text(json.dumps([[5, 0]]))
    cp = run_cli("verify", "remark", "--poly", str(poly))
    assert cp.returncode == 2


def test_computation_failure_exits_one(tmp_path, capsys):
    # (z - 1)^2 (z + 3): the double root 1 sits on the grid circle r = 1
    path = tmp_path / "f.json"
    path.write_text(json.dumps([[3, 0], [-5, 0], [1, 0], [1, 0]]))
    argv = ["verify", "fft", "--function", str(path), "--a", "0", "--rmin", "1", "--rmax", "100", "--points", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "computation failed: integrand not finite on the circle\n"


@pytest.mark.parametrize(
    "denominator, code, out",
    [([[2, 0]], 0, "0.5z^2-0.5"), ([[2, 0], [1, 0]], 2, "a polynomial file must not carry a denominator")],
    ids=["constant", "linear"],
)
def test_poly_file_with_a_denominator(tmp_path, capsys, denominator, code, out):
    # a constant denominator divides the numerator through
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"numerator": [[-1, 0], [0, 0], [1, 0]], "denominator": denominator}))
    assert main(["verify", "remark", "--poly", str(path)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["context"]["p"] == out
    else:
        assert captured.err == f"error: bad polynomial file {path}: {out}\n"


def test_verify_fft_needs_finite_target(square_file):
    cp = run_cli("verify", "fft", "--function", str(square_file), "--a", "inf")
    assert cp.returncode == 2


def test_verify_fft_pass(square_file, tmp_path):
    report = tmp_path / "fft.json"
    cp = run_cli(
        "verify", "fft", "--function", str(square_file), "--a", "1",
        "--points", "16", "--out", str(report),
    )
    assert cp.returncode == 0, cp.stderr
    data = json.loads(report.read_text())
    assert data["verdict"] == "pass"
    assert abs(data["params"]["jensen_gap"]) <= 1e-6


def test_verify_claim1_pass(tmp_path):
    poly = tmp_path / "q.json"
    poly.write_text(json.dumps([[-1, 0], [0, 0], [3, 0], [1, 0]]))
    cp = run_cli("verify", "claim1", "--poly", str(poly), "--points", "16")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["params"]["m"] == 3 and data["params"]["l"] == 2


def test_fta_witness_cubic(cubic_file, tmp_path):
    report = tmp_path / "w.json"
    cp = run_cli("fta-witness", "--poly", str(cubic_file), "--out", str(report))
    assert cp.returncode == 0, cp.stderr
    data = json.loads(report.read_text())
    w = complex(*data["witness"])
    assert abs(w**3 - 3 * w + 1) <= 1e-10
    (h,) = [complex(*s) for s in data["shifts"]]
    assert min(abs(h - 1), abs(h + 1)) <= 1e-9
    assert data["verdict"] == "pass"
    assert all(level["linear_ratio"] <= 1e-9 for level in data["levels"])


def test_fta_witness_quadratic(tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps([[1, 0], [0, 0], [1, 0]]))
    cp = run_cli("fta-witness", "--poly", str(poly))
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["depth"] == 0
    w = complex(*data["witness"])
    assert abs(abs(w.imag) - 1) <= 1e-12 and abs(w.real) <= 1e-12


def test_fta_witness_constant_is_usage_error(tmp_path):
    poly = tmp_path / "c.json"
    poly.write_text(json.dumps([[5, 0]]))
    cp = run_cli("fta-witness", "--poly", str(poly))
    assert cp.returncode == 2


def test_verify_json_deterministic(square_file, tmp_path):
    blobs = []
    for name in ("a.json", "b.json"):
        report = tmp_path / name
        cp = run_cli(
            "verify", "fft", "--function", str(square_file), "--a", "2",
            "--points", "12", "--out", str(report),
        )
        assert cp.returncode == 0
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]


def test_unknown_theorem_is_usage_error(square_file):
    cp = run_cli("verify", "nonsense", "--function", str(square_file), "--a", "0")
    assert cp.returncode == 2


COMMAND_FLAGS = {
    ("profile",): "--function --a --rmin --rmax --points --tol --out",
    ("verify", "fft"): "--function --a --rmin --rmax --points --tol --out",
    ("verify", "smt"): "--function --a --rmin --rmax --points --tol --out",
    ("verify", "degree"): "--poly --rmin --rmax --points --tol --out",
    ("verify", "claim1"): "--poly --rmin --rmax --points --tol --out",
    ("verify", "remark"): "--poly --rmin --rmax --points --out",
    ("fta-witness",): "--poly --tol --out",
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS), ids=" ".join)
def test_command_declares_only_the_flags_it_reads(command):
    parser = build_parser()
    for name in command:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    assert flags == set(COMMAND_FLAGS[command].split())


@pytest.mark.parametrize(
    "argv",
    [
        "fta-witness --poly p.json --points 8",
        "verify degree --poly p.json --seed 1",
        "verify remark --poly p.json --tol 1e-9",
        "verify fft --function f.json --a 1 --poly f",
        "verify claim1 --poly p.json --a 0",
        "verify fft --a 1",
    ],
)
def test_unread_or_missing_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# a coefficient that is null, a list or an object is an input error; a
# string keeps float()'s own message
BAD_ENTRIES = {
    "null": ([None, 0], "bad coefficient entry [None, 0]"),
    "list": ([[2], 0], "bad coefficient entry [[2], 0]"),
    "object": ([{"re": 1}, 0], "bad coefficient entry [{'re': 1}, 0]"),
    "string": (["x", 0], "could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("entry, message", list(BAD_ENTRIES.values()), ids=list(BAD_ENTRIES))
def test_non_numeric_coefficient_in_poly_file(tmp_path, capsys, entry, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([entry, [1, 0]]))
    assert main(["verify", "remark", "--poly", str(path)]) == 2
    assert capsys.readouterr().err == f"error: bad polynomial file {path}: {message}\n"


@pytest.mark.parametrize("entry, message", list(BAD_ENTRIES.values()), ids=list(BAD_ENTRIES))
def test_non_numeric_coefficient_in_function_file(tmp_path, capsys, entry, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"numerator": [[1, 0], [1, 0]], "denominator": [entry, [1, 0]]}))
    argv = ["profile", "--function", str(path), "--a", "0", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: bad function file {path}: {message}\n"


# a bad --tol or grid is an input error with the input check's own
# message; a ValueError raised inside a computation is not. No command
# takes --seed, so argparse rejects it after its usage line
INPUT_CHECKS = {
    "tol": ("verify fft --function {f} --a 1 --tol 0", "abs_tol must be positive"),
    "witness tol": ("fta-witness --poly {p} --tol -1", "tol must be positive"),
    "seed": ("profile --function {f} --a 0 --seed 0", "unrecognized arguments: --seed 0"),
    "span": ("verify degree --poly {p} --rmax 10", "rgrid must span at least two decades"),
    # radii that round to one float
    "grid": ("verify remark --poly {p} --rmax 1.0000000000000002 --points 5", "rgrid must be strictly increasing"),
    "rmax": ("verify remark --poly {p} --rmax 1e400", "rmax must be finite"),
    "infinite tol": ("verify fft --function {f} --a 1 --tol inf", "abs_tol must be finite"),
    "infinite witness tol": ("fta-witness --poly {p} --tol inf", "tol must be finite"),
}


@pytest.mark.parametrize("argv, message", list(INPUT_CHECKS.values()), ids=list(INPUT_CHECKS))
def test_input_check_is_usage_error(tmp_path, capsys, square_file, argv, message):
    argv = argv.format(f=square_file, p=square_file, out=tmp_path / "x").split()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own check
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    if err.startswith("usage: valdist "):
        err = err.split("\nvaldist: ", 1)[1]
    assert err == f"error: {message}\n"


# argvs whose float edges make numpy overflow or meet invalid values:
# stderr holds valdist's own line and nothing from numpy
FLOAT_EDGES = {
    "infinite rmax": ("verify remark --poly {p} --rmax inf", 2, "error: rmax must be finite\n"),
    "subnormal radii": (
        "profile --function {f} --a 0,1,inf --rmin 1e-320 --rmax 1e-319 --points 40 --out {out}",
        0,
        "",
    ),
    "rmax 1e308": (
        "profile --function {f} --a 0,1,inf --rmax 1e308 --points 4 --out {out}",
        1,
        "computation failed: integrand not finite on the circle\n",
    ),
}


@pytest.mark.parametrize("argv, code, err", list(FLOAT_EDGES.values()), ids=list(FLOAT_EDGES))
def test_float_edges_leave_only_valdist_lines_on_stderr(tmp_path, square_file, argv, code, err):
    readme = tmp_path / "readme.json"
    readme.write_text(json.dumps({"numerator": [[-1, 0], [0, 0], [1, 0]], "denominator": [[-3, 0], [1, 0]]}))
    cp = run_cli(*argv.format(f=readme, p=square_file, out=tmp_path / "x").split())
    assert (cp.returncode, cp.stderr) == (code, err)


LIBRARY_CALLS = {
    "build_profile": "profile --function {f} --a 0 --out {out}",
    "verify_first_fundamental": "verify fft --function {f} --a 1",
    "verify_degree_growth": "verify degree --poly {p}",
    "fta_witness": "fta-witness --poly {p}",
}


@pytest.mark.parametrize("name, argv", list(LIBRARY_CALLS.items()), ids=list(LIBRARY_CALLS))
def test_internal_value_error_is_not_an_input_error(monkeypatch, tmp_path, square_file, name, argv):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(f"valdist.cli.{name}", broken)
    argv = argv.format(f=square_file, p=square_file, out=tmp_path / "x").split()
    with pytest.raises(ValueError, match="internal"):
        main(argv)
