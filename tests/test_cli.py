import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import alexinv
from alexinv import curves
from alexinv.cli import parse_and_validate, run
from alexinv.errors import ValidationError

TREFOIL = {
    "schema_version": 1,
    "generators": 2,
    "relators": [[[1, 1], [2, 1], [1, 1], [2, -1], [1, -1], [2, -1]]],
    "phi": [[1], [1]],
}

CONIC = {"schema_version": 1, "strands": 2, "braids": [[1], [1]], "labels": {"1": "C", "2": "C"}}

SEXTIC = {
    "schema_version": 1,
    "degree": 6,
    "components": [{"label": "C", "degree": 6}],
    "singularities": [
        {"pos": [str(x), str(x * x)], "type": "cusp"} for x in [0, 1, -1, 2, -2, 3]
    ],
}


PAIR = {"schema_version": 1, "coords": ["1/6", "1/6"]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (
        ("trefoil", TREFOIL), ("conic", CONIC), ("sextic", SEXTIC), ("pair", PAIR),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_local_pipeline_report():
    code, out = _run(["local", "--germ", "x^2 + y^3"])
    assert code == 0
    assert "t^2 - t + 1" in out
    assert "1/6" in out and "5/6" in out


def test_local_computes_the_zeta_function_once(monkeypatch):
    """The local Alexander polynomial is read off the reported zeta."""
    from alexinv import cli, resolution

    calls = []
    true_zeta = resolution.acampo_zeta

    def counting(tree):
        calls.append(tree)
        return true_zeta(tree)

    monkeypatch.setattr(cli, "acampo_zeta", counting)
    monkeypatch.setattr(resolution, "acampo_zeta", counting)
    code, out = _run(["local", "--germ", "x^2 + y^3"])
    assert code == 0 and "t^2 - t + 1" in out
    assert len(calls) == 1


def test_global_report(files):
    code, out = _run(["global", "--curve", files["sextic"]])
    assert code == 0
    assert "t^2 - t + 1" in out
    assert out.count("PASS") == 2


def test_global_runs_the_theorem_once(files, monkeypatch):
    """The report, quotients included, comes from one divisibility check:
    as many superabundance calls as one global_alexander makes."""
    calls = []
    true_superabundance = curves.superabundance

    def counting(spec, kappa):
        calls.append(kappa)
        return true_superabundance(spec, kappa)

    monkeypatch.setattr(curves, "superabundance", counting)
    curves.global_alexander(parse_and_validate(files["sextic"], "curve"))
    once = list(calls)
    calls.clear()
    code, out = _run(["global", "--curve", files["sextic"], "--cover", "6"])
    assert code == 0 and "PASS" in out
    assert calls == once == [Fraction(1, 6)]


def test_covers_report(files):
    code, out = _run(["covers", "--presentation", files["trefoil"], "--cyclic", "6"])
    assert code == 0
    assert "unbranched_b1: 3" in out
    assert "branched_b1: 2" in out


def test_fox_and_charvar(files):
    code, out = _run(["fox", "--presentation", files["trefoil"]])
    assert code == 0 and "t^2 - t + 1" in out
    code, out = _run(
        ["charvar", "--presentation", files["trefoil"], "--character", "1/6", "--character", "1/2"]
    )
    assert code == 0
    assert "depth: 1" in out and "depth: 0" in out


def test_vankampen_modes(files):
    code, out = _run(["vankampen", "--braids", files["conic"], "--mode", "projective"])
    assert code == 0 and "h1_torsion" in out and "full_twist: True" in out
    code, out = _run(["vankampen", "--braids", files["conic"], "--mode", "affine"])
    assert code == 0 and "h1_free_rank: 1" in out


def test_quasiadj_and_lct():
    code, out = _run(["quasiadj", "--germ", "x^2 + y^5", "--xi", "1/10"])
    assert code == 0 and "1/10" in out and "3/10" in out
    code, out = _run(["lct", "--germ", "x^2 + y^5"])
    assert code == 0 and "threshold: 7/10" in out


def test_faces_subcommand(files):
    code, out = _run(["faces", "--curve", files["sextic"], "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["faces"][0]["h1"] == 1
    assert report["faces"][0]["level"] == "1"


def test_determinism(files):
    hashes = set()
    for _ in range(2):
        _, out = _run(["global", "--curve", files["sextic"], "--format", "json"])
        hashes.add(hashlib.sha256(out.encode()).hexdigest())
    assert len(hashes) == 1


def test_json_reports_parse(files):
    for argv in (
        ["local", "--germ", "x^2 + y^3", "--format", "json"],
        ["global", "--curve", files["sextic"], "--format", "json"],
        ["covers", "--presentation", files["trefoil"], "--cyclic", "6", "--format", "json"],
    ):
        code, out = _run(argv)
        assert code == 0
        json.loads(out)


def test_unknown_subcommand():
    code, _ = _run(["frobnicate"])
    assert code == 64


def test_validation_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 6, "components": [{"label": "C", "degree": 5}]}))
    code, _ = _run(["global", "--curve", str(bad)])
    assert code == 2


def test_all_violations_reported(tmp_path):
    bad = tmp_path / "braid.json"
    bad.write_text(
        json.dumps({"strands": 2, "braids": [[5], [0], [1]]})
    )
    with pytest.raises(ValidationError) as err:
        parse_and_validate(str(bad), "braids")
    # both bad letters are reported, with their positions
    assert len(err.value.violations) == 2
    assert "braid 1, letter 1" in err.value.violations[0]
    assert "braid 2, letter 1" in err.value.violations[1]


def test_math_error_exit_3(tmp_path):
    free2 = tmp_path / "free2.json"
    free2.write_text(json.dumps({"generators": 2, "relators": [], "phi": [[1], [1]]}))
    code, _ = _run(["fox", "--presentation", str(free2)])
    assert code == 3  # non-torsion Alexander module


def test_math_error_irrational_point(capsys):
    code, _ = _run(["local", "--germ", "(x^2 - 2*y^2)^2 + y^5"])
    assert code == 3
    assert "minimal polynomial" in capsys.readouterr().err


def test_schema_round_trip(files):
    spec = parse_and_validate(files["sextic"], "curve")
    assert spec.degree == 6
    pres = parse_and_validate(files["trefoil"], "presentation")
    assert pres.generators == 2


def test_invalid_jet_bound_env_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("ALEXINV_JET_BOUND", "abc")
    for sub in ("quasiadj", "local"):
        code, _ = _run([sub, "--germ", "x^2 + y^3"])
        assert code == 2
        assert "ALEXINV_JET_BOUND" in capsys.readouterr().err


def test_internal_error_exit_70(files, monkeypatch, capsys):
    # curves holds its own reference to linalg.rational_rank
    true_rank = curves.rational_rank
    monkeypatch.setattr(curves, "rational_rank", lambda rows: true_rank(rows) + 2)
    code, out = _run(["global", "--curve", files["sextic"], "--cover", "6"])
    assert code == 70 and out == ""
    assert "internal error" in capsys.readouterr().err


def test_cli_import_does_not_load_sympy():
    # the child imports the same alexinv as this process
    env = {**os.environ, "PYTHONPATH": str(Path(alexinv.__file__).parents[1])}
    probe = "import sys, alexinv.cli; print('sympy' in sys.modules, 'jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False False"
    # germ runs: validation and tangent factoring are exact and sympy-free
    probe = (
        "import io, sys, alexinv.cli as c; "
        "codes = [c.run(a, out=io.StringIO()) for a in "
        "(['local', '--germ', 'x^2 - y^3'], ['lct', '--germ', 'x^2 + y^5'])]; "
        "print(codes, 'sympy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[0, 0] False"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["charvar", "--presentation", "{trefoil}", "--character", "1/0"], "--character"),
        (["quasiadj", "--germ", "x^2 + y^3", "--xi", "abc"], "--xi"),
        (["lct", "--germ", "x^2 + y^3", "--direction", "1,q"], "--direction"),
        (["covers", "--presentation", "{trefoil}", "--abelian", "3,x"], "--abelian"),
    ],
)
def test_unparsable_option_value_exit_2(files, argv, option, capsys):
    argv = [a.format(**files) for a in argv]
    code, _ = _run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert option in err and argv[-1] in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["covers", "--presentation", "{trefoil}", "--cyclic", "0"], "--cyclic"),
        (["covers", "--presentation", "{trefoil}", "--abelian", "0"], "--abelian"),
        (["covers", "--presentation", "{trefoil}", "--abelian", "2,3"], "--abelian"),
        (["lct", "--germ", "x^2 + y^3", "--direction", "1,2"], "--direction"),
        (["lct", "--germ", "x^2 + y^3", "--direction", "-1"], "--direction"),
        (["global", "--curve", "{sextic}", "--cover", "0"], "--cover"),
        (["charvar", "--presentation", "{trefoil}", "--character", "1/6,1/6"], "--character"),
        (["charvar", "--presentation", "{trefoil}", "--character-file", "{pair}"], "{pair}"),
    ],
)
def test_out_of_range_option_value_exit_2(files, argv, option, capsys):
    code, _ = _run([a.format(**files) for a in argv])
    assert code == 2
    assert f"error: {option.format(**files)}:" in capsys.readouterr().err
