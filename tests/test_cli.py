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
from alexinv import cli, curves, quasiadj
from alexinv.cli import parse_and_validate, run
from alexinv.errors import (
    AlexinvError,
    BadArgument,
    InternalError,
    NonRationalInfinitelyNearPoint,
    ValidationError,
)
from alexinv.serialize import curve_from_json
from conftest import RUNAWAY_PHI

TREFOIL = {
    "schema_version": 1,
    "generators": 2,
    "relators": [[[1, 1], [2, 1], [1, 1], [2, -1], [1, -1], [2, -1]]],
    "phi": [[1], [1]],
}

HOPF = {
    "schema_version": 1,
    "generators": 2,
    "relators": [[[1, 1], [2, 1], [1, -1], [2, -1]]],
    "phi": [[1, 0], [0, 1]],
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
        ("trefoil", TREFOIL), ("hopf", HOPF), ("conic", CONIC), ("sextic", SEXTIC), ("pair", PAIR),
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
    from alexinv import resolution

    calls = []
    true_zeta = resolution.acampo_zeta

    def counting(tree):
        calls.append(tree)
        return true_zeta(tree)

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


@pytest.mark.parametrize("phi, message", [
    ([[0], [0]], "phi is not surjective onto Z^r"),
    ([[2], [2]], "phi is not surjective onto Z^r"),
])
def test_bad_abelianization_in_file_exit_3(tmp_path, capsys, phi, message):
    """An image of rank 0 and one of index 2: a mathematical precondition."""
    bad = tmp_path / "phi.json"
    bad.write_text(json.dumps({"generators": 2, "relators": [], "phi": phi}))
    code, out = _run(["fox", "--presentation", str(bad)])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fox_on_a_runaway_phi_exits_0(tmp_path):
    """The file's phi is onto Z^5, and a naive Smith loop never ends its
    surjectivity check."""
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"generators": 6, "relators": [], "phi": RUNAWAY_PHI}))
    code, out = _run(["fox", "--presentation", str(path)])
    assert code == 0 and out == "generators: 6\nrelators: 0\nrank: 5\nmatrix:\n"


def test_unequal_phi_vectors_in_file_exit_2(tmp_path, capsys):
    """phi vectors of unequal length are a malformed file: an input error
    that names the file, not a mathematical precondition."""
    bad = tmp_path / "phi.json"
    bad.write_text(json.dumps({"generators": 2, "relators": [], "phi": [[1], [1, 0]]}))
    code, out = _run(["fox", "--presentation", str(bad)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {bad}: phi vectors of unequal length\n"


def test_math_error_irrational_point(capsys):
    code, _ = _run(["local", "--germ", "(x^2 - 2*y^2)^2 + y^5"])
    assert code == 3
    assert "minimal polynomial" in capsys.readouterr().err


def test_schema_round_trip(files):
    spec = parse_and_validate(files["sextic"], "curve")
    assert spec.degree == 6
    pres = parse_and_validate(files["trefoil"], "presentation")
    assert pres.generators == 2


def test_internal_error_exit_70(files, monkeypatch, capsys):
    # overcount the rank of the superabundance conditions
    true_rank = curves._condition_rank
    monkeypatch.setattr(curves, "_condition_rank", lambda *args: true_rank(*args) + 2)
    code, out = _run(["global", "--curve", files["sextic"], "--cover", "6"])
    assert code == 70 and out == ""
    assert "internal error" in capsys.readouterr().err


def test_inexact_division_exit_70(monkeypatch, capsys):
    """A factor that does not divide is a bug in the package, exit 70, not
    a failed precondition: here a wrong rational root reaches the
    tangent-cone factorization of the resolution."""
    from alexinv import uni

    true_roots = uni.rational_roots
    monkeypatch.setattr(uni, "rational_roots", lambda p: true_roots(p) + [Fraction(7)])
    code, out = _run(["local", "--germ", "x^2 + y^3"])
    assert code == 70 and out == ""
    assert capsys.readouterr().err == "internal error: t - 7 does not divide 1\n"


def test_plain_value_error_is_not_exit_3(monkeypatch):
    """Only the package's own errors become exit codes: a ValueError that
    Python raises inside a handler is a bug and propagates, rather than
    pass as a failed mathematical precondition (exit 3)."""

    def broken(args):
        raise ValueError("invalid literal for int() with base 10: 'x'")

    monkeypatch.setitem(cli.HANDLERS, "lct", broken)
    with pytest.raises(ValueError, match="invalid literal"):
        _run(["lct", "--germ", "x^2 + y^3"])


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


# Input errors exit 2 and internal errors 70; every other package error is
# a failed mathematical precondition, exit 3.  A new class lands here, so
# it must be given its exit code on purpose.
EXIT_CODES = {ValidationError: 2, BadArgument: 2, InternalError: 70}
ERROR_ARGS = {ValidationError: (["boom"],), NonRationalInfinitelyNearPoint: ("x^2 - 2", True)}


@pytest.mark.parametrize(
    "error", _subclasses(AlexinvError) + [InternalError], ids=lambda cls: cls.__name__
)
def test_exit_code_of_every_error_class(error, monkeypatch):
    def broken(args):
        raise error(*ERROR_ARGS.get(error, ("boom",)))

    monkeypatch.setitem(cli.HANDLERS, "lct", broken)
    code, out = _run(["lct", "--germ", "x^2 + y^3"])
    assert code == EXIT_CODES.get(error, 3) and out == ""


def test_variant_choices_are_the_quasiadj_variants():
    """The parser spells out the variants so that building it does not
    import quasiadj; they must stay the ones quasiadj accepts."""
    (subparsers,) = [a for a in cli.build_parser("quasiadj")._actions if a.dest == "subcommand"]
    (variant,) = [a for a in subparsers.choices["quasiadj"]._actions if a.dest == "variant"]
    assert tuple(variant.choices) == quasiadj.VARIANTS


def test_bad_argument_exit_2(files, monkeypatch, capsys):
    """An argument that a library check refuses (BadArgument) is an input
    error, exit 2, even where the CLI's own checks let it through; here a
    cover order of 0 reaches groups."""
    from alexinv import groups

    true_betti = groups.unbranched_cover_betti
    monkeypatch.setattr(groups, "unbranched_cover_betti", lambda p, orders: true_betti(p, (0,)))
    code, out = _run(["covers", "--presentation", files["trefoil"], "--cyclic", "6"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: orders must be >= 1\n"


# Modules no run of these subcommands may load: the Fox-calculus runs
# need no resolution or curve theory, the germ runs no group theory.
GROUP_RUNS_SKIP = {"resolution", "biv", "quasiadj", "polytope", "curves", "braids"}
GERM_RUNS_SKIP = {"groups", "braids", "curves"}
# local and lct need no polytope, so neither the face machinery nor the
# elimination kernel it imports
POLYTOPE_FREE_SKIP = GERM_RUNS_SKIP | {"polytope", "linalg"}


def test_cli_import_does_not_load_sympy(files, tmp_path):
    """Each subcommand, run in a fresh interpreter, loads only the modules
    it runs; none loads sympy or jsonschema, nor dataclasses or inspect,
    which generate and compile code at import.  A module the interpreter
    loaded before the package (a site hook may) does not count."""
    # the child imports the same alexinv as this process
    env = {**os.environ, "PYTHONPATH": str(Path(alexinv.__file__).parents[1])}
    sixth = tmp_path / "sixth.json"
    sixth.write_text(json.dumps({"coords": ["1/6"]}))
    probe = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from alexinv.cli import run\n"
        "code = run(sys.argv[1:], out=io.StringIO())\n"
        "print(code, *sorted(m for m in set(sys.modules) - before if m.split('.')[0] in "
        "('alexinv', 'sympy', 'jsonschema', 'dataclasses', 'inspect')))\n"
    )
    runs = [
        (["fox", "--presentation", files["trefoil"]], GROUP_RUNS_SKIP),
        (["charvar", "--presentation", files["trefoil"], "--character", "1/6",
          "--character-file", str(sixth)], GROUP_RUNS_SKIP),
        (["covers", "--presentation", files["trefoil"], "--cyclic", "6"], GROUP_RUNS_SKIP),
        (["local", "--germ", "x^2 - y^3"], POLYTOPE_FREE_SKIP),
        (["lct", "--germ", "x^2 + y^5"], POLYTOPE_FREE_SKIP),
        (["quasiadj", "--germ", "x^2 + y^5", "--xi", "1/10"], GERM_RUNS_SKIP),
        (["global", "--curve", files["sextic"]], set()),
        (["faces", "--curve", files["sextic"]], set()),
        (["vankampen", "--braids", files["conic"]], set()),
    ]
    for argv, skip in runs:
        out = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True, env=env
        )
        code, *modules = out.stdout.split()
        assert code == "0", argv
        loaded = {m.split(".")[1] for m in modules if m.startswith("alexinv.")}
        assert "serialize" in loaded and not loaded & skip, (argv, loaded & skip)
        assert all(m.startswith("alexinv") for m in modules), (argv, modules)
    # the package's public names load on first use
    probe = (
        "import sys, alexinv\n"
        "before = sorted(m for m in sys.modules if m.startswith('alexinv.'))\n"
        "from alexinv import resolve, ProjectiveCurveSpec\n"
        "print(before, resolve.__module__, ProjectiveCurveSpec.__module__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["[]", "alexinv.resolution", "alexinv.curves"]


def test_package_names_resolve():
    assert len(alexinv.__all__) == 54
    for name in alexinv.__all__:
        value = getattr(alexinv, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(alexinv.__all__) <= set(dir(alexinv))
    with pytest.raises(AttributeError, match="no_such_name"):
        alexinv.no_such_name


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
        (["covers", "--presentation", "{hopf}", "--cyclic", "6"], "--cyclic"),
        (["quasiadj", "--germ", "x^2 + y^3", "--xi", "0"], "--xi"),
        (["quasiadj", "--germ", "x^2 + y^3", "--xi", "3/2"], "--xi"),
        (["quasiadj", "--germ", "x^2 + y^3", "--xi", "1/2,1/3"], "--xi"),
    ],
)
def test_out_of_range_option_value_exit_2(files, argv, option, capsys):
    code, _ = _run([a.format(**files) for a in argv])
    assert code == 2
    assert f"error: {option.format(**files)}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub, option, data, fields",
    [
        ("global", "--curve",
         {"degree": 2, "singularities": [{"pos": ["a", "0"], "type": "node"},
                                         {"pos": ["0", "1/0"], "type": "node"}]},
         ["singularities/0/pos/0", "singularities/1/pos/1"]),
        ("faces", "--curve", {"degree": 2, "singularities": [{"pos": ["1/0", "0"], "type": "node"}]},
         ["singularities/0/pos/0"]),
        ("charvar", "--character-file", {"coords": ["x"]}, ["coords/0"]),
        ("charvar", "--character-file", {"coords": ["1/0"]}, ["coords/0"]),
    ],
    ids=["global-pos-a", "faces-pos-1/0", "charvar-coords-x", "charvar-coords-1/0"],
)
def test_unparsable_rational_in_file_exit_2(files, tmp_path, capsys, sub, option, data, fields):
    """A rational in a file that does not parse is an input error naming
    the file and the field; every such field is listed."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = [sub, option, str(bad)]
    if sub == "charvar":
        argv += ["--presentation", files["trefoil"]]
    code, out = _run(argv)
    assert code == 2 and out == ""
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": cannot parse")[0] for line in lines] == [
        f"error: {bad}: {field}" for field in fields
    ]


@pytest.mark.parametrize("sub", ["local", "quasiadj", "lct"])
def test_unparsable_germ_option_exit_2(sub, capsys):
    """A germ string that does not parse is an input error naming --germ;
    one that parses but is no germ stays a mathematical precondition."""

    def argv(*germs):
        xi = ["--xi", ",".join(["1/2"] * len(germs))] if sub == "quasiadj" else []
        return [sub, *(a for g in germs for a in ("--germ", g)), *xi]

    code, out = _run(argv("x^2 + y^3", "x^^2 + y"))
    assert code == 2 and out == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --germ: cannot parse polynomial 'x^^2 + y'")
    assert _run(argv("1 + x"))[0] == 3


def test_unparsable_germ_in_file_exit_2(tmp_path, capsys):
    """A germ string in a curve file that does not parse is an input error
    naming the file and the JSON path of the string; every one is listed."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 6, "singularities": [
        {"pos": ["0", "0"], "germ": "x^^2 + y"},
        {"pos": ["1", "0"], "germ": ["x - y", "x + z"]},
        {"pos": ["2", "0"], "germ": "x^2 + y^3"},
    ]}))
    code, out = _run(["global", "--curve", str(bad)])
    assert code == 2 and out == ""
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1:3] for line in lines] == [
        [str(bad), "singularities/0/germ"], [str(bad), "singularities/1/germ/1"],
    ]


def test_curve_file_errors_name_the_json_path(tmp_path, capsys):
    """The curve builder names a singularity by its 0-based JSON path, as
    the schema checker does."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 6, "singularities": [
        {"pos": ["0", "0"], "type": "cusp"}, {"pos": ["1", "0"], "type": "torus"},
    ]}))
    code, out = _run(["global", "--curve", str(bad)])
    assert code == 2 and out == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: {bad}: singularities/1: torus type needs pq"
    with pytest.raises(ValidationError) as err:
        curve_from_json({"degree": 2, "singularities": [{"pos": ["0"], "type": "node"}]})
    assert err.value.violations == ["singularities/0/pos: must be a pair"]


@pytest.mark.parametrize("sub", ["global", "faces"])
def test_torus_type_with_common_factor_exit_3(tmp_path, capsys, sub):
    """x^2 + y^4 is not a torus knot germ: loading the curve rejects it on
    every subcommand, before any answer is computed."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 8, "singularities": [
        {"pos": ["0", "0"], "type": "cusp"}, {"pos": ["1", "0"], "type": "torus", "pq": [2, 4]},
    ]}))
    code, out = _run([sub, "--curve", str(bad)])
    assert code == 3 and out == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: torus type (2, 4): gcd(2, 4) != 1"


def test_incidence_needs_one_label_or_one_per_branch_exit_3(tmp_path, capsys):
    """Two labels on a three-branch germ would lift two of its three
    coordinates: the curve is rejected where the labels are checked."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 3, "components": [{"label": "A", "degree": 2}, {"label": "B", "degree": 1}],
        "singularities": [{"pos": ["0", "0"], "germ": ["x", "y", "x-y"], "incidence": ["A", "B"]}],
    }))
    code, out = _run(["faces", "--curve", str(bad)])
    assert code == 3 and out == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line == (
        "error: incidence ['A', 'B'] at germ(x, y, -y + x) must give one label or one per branch (3)"
    )


def test_more_branches_than_components_without_incidence_exit_3(tmp_path, capsys):
    """With no incidence, branch i lies on component i: a three-branch germ
    on a two-component curve has no component for its third branch."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 3, "components": [{"label": "A", "degree": 1}, {"label": "B", "degree": 2}],
        "singularities": [{"pos": ["0", "0"], "germ": ["x", "y", "x-y"]}],
    }))
    code, out = _run(["faces", "--curve", str(bad)])
    assert code == 3 and out == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line == (
        "error: germ(x, y, -y + x) at (0, 0) has 3 branches but the curve has 2 components: "
        "give its incidence"
    )


# One file per schema keyword that breaks only that keyword, with the
# subcommand that reads it and the path the violation is reported at.
KEYWORD_VIOLATIONS = {
    "type": ("fox", "--presentation", {"generators": "2"}, "generators"),
    "const": ("fox", "--presentation", {"schema_version": 2, "generators": 1}, "schema_version"),
    "enum": ("global", "--curve",
             {"degree": 2, "singularities": [{"pos": ["0", "0"], "type": "tacnode"}]},
             "singularities/0/type"),
    "oneOf": ("global", "--curve",
              {"degree": 2, "singularities": [{"pos": ["0", "0"], "germ": []}]},
              "singularities/0/germ"),
    "required": ("fox", "--presentation", {"relators": []}, "<root>"),
    "properties": ("fox", "--presentation", {"generators": 1, "torsion": 1}, "torsion"),
    "patternProperties": ("vankampen", "--braids",
                          {"strands": 1, "braids": [], "labels": {"1": 5}}, "labels/1"),
    "additionalProperties": ("vankampen", "--braids",
                             {"strands": 1, "braids": [], "labels": {"x": "C"}}, "labels"),
    "prefixItems": ("fox", "--presentation", {"generators": 1, "relators": [[[1, 2]]]},
                    "relators/0/0/1"),
    "items": ("fox", "--presentation", {"generators": 1, "phi": [["1"]]}, "phi/0/0"),
    "minItems": ("charvar", "--character-file", {"coords": []}, "coords"),
    "maxItems": ("global", "--curve",
                 {"degree": 2, "singularities": [{"pos": ["0", "0", "0"], "type": "node"}]},
                 "singularities/0/pos"),
    "minimum": ("lct", "--tree", {"r": 0, "nodes": []}, "r"),
}


@pytest.mark.parametrize("keyword", sorted(KEYWORD_VIOLATIONS))
def test_schema_keyword_violation_exit_2(files, tmp_path, capsys, keyword):
    sub, option, data, where = KEYWORD_VIOLATIONS[keyword]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = [sub, option, str(bad)]
    if sub == "charvar":
        argv += ["--presentation", files["trefoil"]]
    code, out = _run(argv)
    assert code == 2 and out == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad}: {where}: ")


# The benchmark's CLI calls whose inputs are files under data/ and flags
# only, with the reports it pins byte for byte (read, never written).
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ("fox", "local", "quasiadj.json", "quasiadj.text", "lct")


def _bench_cli_calls():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import CLI_CALLS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return dict(CLI_CALLS)


@pytest.mark.parametrize("name", GOLDEN)
def test_cli_report_matches_bench_expected(name):
    argv = _bench_cli_calls()[name]
    assert all(not a.startswith(".bench_work") for a in argv)
    env = {**os.environ, "PYTHONPATH": str(Path(alexinv.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "alexinv.cli", *argv], cwd=ROOT, capture_output=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (ROOT / "bench" / "expected" / f"{name}.out").read_bytes()


# Each subcommand's -h output and one parse error, pinned byte for byte
# from the parser as it was when every subparser was built on each run.
PARSER_PINS = json.loads((ROOT / "tests" / "cli_parser_pins.json").read_text())


@pytest.mark.parametrize("sub", sorted(PARSER_PINS))
def test_parser_help_and_error_pinned(sub, monkeypatch, capsys):
    pin = PARSER_PINS[sub]
    monkeypatch.setenv("COLUMNS", "80")
    assert _run([sub, "-h"]) == (0, "")
    assert capsys.readouterr() == (pin["help"], "")
    assert _run(pin["error_argv"]) == (pin["exit"], "")
    assert capsys.readouterr() == ("", pin["error"])


# The resolution_tree block of `local --format json` for germs with two
# Puiseux pairs, three branches, recentred infinitely near points and
# scaled coefficients, pinned byte for byte from the route that built the
# node orders by substituting every component into each chart.
TREE_PINS = json.loads((ROOT / "tests" / "resolution_tree_pins.json").read_text())


@pytest.mark.parametrize("pin", TREE_PINS, ids=[", ".join(p["germ"]) for p in TREE_PINS])
def test_local_resolution_tree_pinned(pin):
    argv = ["local", "--format", "json"]
    for component in pin["germ"]:
        argv += ["--germ", component]
    code, out = _run(argv)
    assert code == 0

    def block(tree):
        return json.dumps(tree, indent=2, sort_keys=True)

    assert block(json.loads(out)["resolution_tree"]) == block(pin["resolution_tree"])


# Tree files that pass the schema but describe no tree, one fault each,
# with the JSON path and the message each is refused with.
NODE = {"id": 1, "a": [2], "c": 1}
MALFORMED_TREES = {
    "ids_out_of_order": (
        {"r": 1, "nodes": [NODE, {**NODE, "id": 3}]},
        ["nodes/1/id: 3 where 2 is due; ids run 1..2 in order"],
    ),
    "adj_missing_node": (
        {"r": 1, "nodes": [{**NODE, "adj": [2]}]},
        ["nodes/0/adj/0: no node 2"],
    ),
    "adj_itself": (
        {"r": 1, "nodes": [{**NODE, "adj": [1]}]},
        ["nodes/0/adj/0: node 1 names itself"],
    ),
    "adj_not_symmetric": (
        {"r": 1, "nodes": [{**NODE, "adj": [2]}, {**NODE, "id": 2}]},
        ["nodes/0/adj/0: node 2 does not name node 1"],
    ),
    "strict_above_r": (
        {"r": 1, "nodes": [{**NODE, "strict": [[1, 1], [2, 1]]}]},
        ["nodes/0/strict/1/0: component 2 above r = 1"],
    ),
    "a_wrong_length": (
        {"r": 2, "nodes": [NODE]},
        ["nodes/0/a: 1 entries for r = 2"],
    ),
    "every_fault_at_once": (
        {"r": 1, "nodes": [{**NODE, "adj": [7]}, {"id": 5, "a": [3], "c": 2, "strict": [[3, 1]]}]},
        [
            "nodes/0/adj/0: no node 7",
            "nodes/1/id: 5 where 2 is due; ids run 1..2 in order",
            "nodes/1/strict/0/0: component 3 above r = 1",
        ],
    ),
}


@pytest.mark.parametrize("sub", ["local", "lct"])
@pytest.mark.parametrize("fault", sorted(MALFORMED_TREES))
def test_malformed_tree_file_exit_2(tmp_path, capsys, fault, sub):
    """Each fault is an input error that names the file and the JSON path,
    reported before any invariant is read off the tree."""
    data, messages = MALFORMED_TREES[fault]
    bad = tmp_path / "tree.json"
    bad.write_text(json.dumps(data))
    code, out = _run([sub, "--tree", str(bad)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {m}" for m in messages]


def test_tree_file_round_trip_passes_the_checks(tmp_path, three_branch_tree):
    """A tree written by to_json loads back unchanged through the CLI's
    checks."""
    good = tmp_path / "tree.json"
    good.write_text(json.dumps(three_branch_tree.to_json()))
    assert parse_and_validate(str(good), "tree").to_json() == three_branch_tree.to_json()
