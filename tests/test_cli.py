import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gwverify import cli, hodge, localization
from gwverify.cli import main


def _reset_data_caches():
    hodge.reset_tables()
    localization.reset_problems()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_command(capsys):
    code, out, _ = run(capsys, "psi", "--g", "2", "--exponents", "4")
    assert code == 0 and out.strip() == "1/1152"
    code, out, _ = run(capsys, "psi", "--g", "2", "--exponents", "3,2")
    assert code == 0 and out.strip() == "29/5760"


def test_hodge_command(capsys):
    code, out, _ = run(capsys, "hodge", "--g", "2", "--n", "1", "--psi", "3", "--lambda", "1,0")
    assert code == 0 and out.strip() == "1/480"
    # without --lambda every lambda exponent is 0
    code, out, _ = run(capsys, "hodge", "--g", "2", "--n", "1", "--psi", "4")
    assert code == 0 and out == "1/1152\n"
    # a lambda_g key that no table row holds, by the lambda_g formula
    code, out, _ = run(capsys, "hodge", "--g", "3", "--n", "2", "--psi", "3,2", "--lambda", "0,0,1")
    assert code == 0 and out == "31/96768\n"


def test_thm1_command(capsys):
    code, out, _ = run(capsys, "thm1", "--n", "5", "--g", "7")
    assert code == 0 and out.strip() == "guaranteed"
    code, out, _ = run(capsys, "thm1", "--n", "1", "--g", "2", "--kappa", "nontrivial")
    assert code == 0 and "Example 2" in out
    code, _, err = run(capsys, "thm1", "--n", "4", "--g", "3", "--primary")
    assert code == 2 and "unrecognized arguments: --primary" in err


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--n", "1", "--g", "2", "--k", "2", "--c1A", "2")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run(
        capsys, "dim", "--n", "4", "--g", "3", "--k", "1", "--c1A", "5",
        "--AdotV", "3", "--s", "1,1,1",
    )
    assert code == 0 and out.strip() == "8"


def test_gw10_command(capsys):
    code, out, _ = run(capsys, "gw10", "--X", "P4", "--insertion", "j")
    assert code == 0 and out.strip() == "5/2"
    code, out, _ = run(capsys, "gw10", "--X", "P4", "--V", "1", "--insertion", "j")
    assert code == 0 and out.strip() == "1/2"


def test_chern_command(capsys):
    code, out, _ = run(capsys, "chern", "--space", "P4", "--hypersurface", "5")
    assert code == 0
    assert "chi(V5(P4))" in out and "-200" in out
    code, _, _ = run(capsys, "chern", "--space", "P4", "--hypersurface", "5", "--report")
    assert code == 2


def test_localize_command(capsys):
    code, out, _ = run(
        capsys, "localize", "--config", "p4-relative-delta1", "--expect=-97/193536"
    )
    assert code == 0 and "PASS" in out
    code, out, err = run(
        capsys, "localize", "--config", "fig7", "--expect", "1/2"
    )
    assert code == 1


def test_localize_prints_a_constant_contribution_as_a_rational(capsys):
    code, out, _ = run(capsys, "localize", "--config", "p4-absolute")
    assert code == 0 and ")/(" not in out
    assert re.search(r"locus genus2-at-p1-genus1-below +=\s5/27648 ", out)
    code, out, _ = run(capsys, "localize", "--config", "fig8-relative", "--json")
    values = {i["label"]: i["value"] for i in json.loads(out)["items"]}
    assert values["locus genus2-at-p1"] == "19/5760"
    assert values["locus genus2-at-p2"] == "0"
    # a contribution with weight symbols keeps its rational-function form
    code, out, _ = run(capsys, "localize", "--config", "p4-relative-delta1")
    assert code == 0 and "= (-1/165888*a2^6)/(a1^6 - a1^4*a2^2) " in out


def test_localize_help_lists_names_it_accepts(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # keep the help on one line
    code, out, _ = run(capsys, "localize", "--help")
    assert code == 0
    names = out.split("builtin name (", 1)[1].split(")", 1)[0].split(", ")
    assert names == sorted(localization.BUILTIN_ALIASES)
    for name in names:
        assert localization.resolve_problem(name).loci


def test_localize_eval_and_json(capsys):
    code, out, _ = run(
        capsys, "localize", "--config", "fig10", "--eval", "5,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    values = {i["label"]: i["value"] for i in payload["items"]}
    assert values["evaluation at (5,2)"] == "4"


def test_localize_eval_at_a_pole_is_a_usage_error(capsys):
    # every locus of the relative problem has a pole at a1 = a2, although
    # the symbolic total is the constant -97/193536
    code, out, err = run(capsys, "localize", "--config", "p4-relative-delta1", "--eval", "1,1")
    assert code == 2 and out == ""
    assert err.startswith("error: locus 'genus1-at-p1-genus2-rubber': denominator vanishes")
    # the swapped weights are evaluated too: (0, 2) is a pole only of the swap
    code, out, err = run(capsys, "localize", "--config", "p4-relative-delta1", "--eval", "2,0")
    assert code == 2 and "denominator vanishes at (0, 2)" in err


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "verify", "--example", "3", "--delta", "1")
    assert code == 0
    assert "-37/82944" in out and "-97/193536" in out and "PASS" in out
    code, out, _ = run(capsys, "verify", "--example", "2", "--symbolic")
    assert code == 0 and "1/240 - 1/1152*delta" in out
    code, out, _ = run(capsys, "verify", "--example", "1", "--delta", "3", "--n", "3")
    assert code == 0 and "PASS" in out


def test_graphs_command(capsys):
    code, out, _ = run(capsys, "graphs", "--example", "3", "--delta", "7")
    assert code == 0 and "2 of" in out.splitlines()[-1]
    summary = out.splitlines()[-1]
    code, out, _ = run(capsys, "graphs", "--example", "3", "--delta", "7", "--surviving")
    assert code == 0 and out.splitlines()[-1] == summary
    assert summary.startswith("2 of ") and summary.endswith(" graphs contribute")
    assert len(out.splitlines()) == 3
    code, _, err = run(capsys, "graphs", "--example", "3", "--delta", "7", "--all")
    assert code == 2 and "--all" in err


def test_graphs_output_golden(capsys):
    # sha256 of the full stdout: pins the describe() order and, among the
    # isomorphic orderings of a graph's V-vertices, the one that is printed
    golden = {
        ("3", "6"): "1cf99039135c529c665bd680fff24d5ea9a366f8da3de2078a8c9f3cd6c9520a",
        ("3", "9"): "c875cd2704738c89e537dd32133203932d15677965e3b79c584d894a61631904",
        ("2", "5"): "c8935445b38d21bc6ee287d04a7488a89ec005d0522e42a69fe5af657c464fa6",
    }
    for (example, delta), digest in golden.items():
        code, out, _ = run(capsys, "graphs", "--example", example, "--delta", delta)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (example, delta)


def test_scalar_output_golden(capsys):
    # sha256 of the full stdout: pins the per-locus value of every scalar
    # (a rational where the contribution is constant, else its str()),
    # the numeric evaluation, the printed DeltaPoly of each example and the
    # Chern rows of each hypersurface
    golden = {
        ("localize", "--config", "fig7", "--eval", "5,2"):
            "562b0dbabf7d08d1438a10776ec91e524589c7aa13f77dd5da8ac1c9a018a1cb",
        ("localize", "--config", "fig10", "--eval", "5,2"):
            "c99bb3d7b897154817c43056c1130df3607e48a292c5d36c685012c16cbe52a9",
        ("localize", "--config", "fig8-absolute", "--eval", "5,2"):
            "5277d4d20420764738d7e901757efeb2a3957129367e5a9dc9337834e9a6ae36",
        ("localize", "--config", "fig8-relative", "--eval", "5,2"):
            "e5ddc49ff8640de4cd4cb6ac7457eef65d079786bc32f0c3b8b954a99718225d",
        ("localize", "--config", "p4-absolute", "--eval", "5,2"):
            "c7e3a6cb08654f9cb2c6da4e392f7fd5ce622feb980662ba5ad15afa06989e37",
        ("localize", "--config", "p4-relative-delta1", "--eval", "5,2"):
            "4fab4bb6d571c2af41804cf2b719cd7aa06ec2ebff274812b06db15a1c334755",
        ("localize", "--config", "p4-relative-delta1", "--json"):
            "f2d92568beedae4d0189bce8d5282408122574c4aa7f30167b2ee10ea67303ef",
        ("verify", "--example", "1", "--symbolic"):
            "eb31acfb8fa8e8b2720940c442cfccc4f3faceec4f7fb1f3ba1ef9d5fc635c6e",
        ("verify", "--example", "2", "--symbolic"):
            "babc65f297e79159c01ad84407f14d7a2e4a1ba85c23c5eaa75ead3e4cfb183d",
        ("verify", "--example", "3", "--symbolic"):
            "dbe68f01515b57769a1c82df0f34fbf08aba755ee9435a21d2a3c72f5c1ed4df",
        ("verify", "--example", "2", "--delta", "3"):
            "3ab6fecd8acf4e1c7b55c9858fc01c26254dfb5e6d20fd84cbcd288863168365",
        ("verify", "--example", "3", "--delta", "1"):
            "9ea27232b99d410f872d149b0550e56909f905727798a639714213937ad2cd82",
        ("verify", "--example", "3", "--delta", "4"):
            "03dbe6221c7bce4c32260eb457ee466f6eda368f6e7203ef4e2f99328095e635",
        ("verify", "--example", "1", "--delta", "3", "--n", "3"):
            "cfc39884976ca6cbb253c51542b4c0407bb2cc8b4dd63813a10b15df2a75ee32",
        ("verify", "--example", "2", "--delta", "1"):
            "bf9fa0ce69f5b7533278a8ec0c7f2ca596bbd04f15998385b0c5c0efccc81346",
        ("verify", "--example", "3", "--delta", "12", "--json"):
            "ca65eb9a6e404646da80b54e5043c3beb501b268c122124f96c9b848d6d2f28e",
        ("chern", "--space", "P1", "--hypersurface", "5"):
            "32705a0edb206270ccfbd7f7e0f7e9faf70a3fdc48b5881ae1562e88547b63e7",
        ("chern", "--space", "P2", "--hypersurface", "5"):
            "9629619068fee3a63985c5417d13ee36d11345bcf0ded23c90edf7396cf7fa3d",
        ("chern", "--space", "P3", "--hypersurface", "5"):
            "7b40737a0e05267e14a425566e67c41beeefdfd684c3bc7f7ac69b3b5a96b118",
        ("chern", "--space", "P4", "--hypersurface", "5"):
            "f0a3e953ac1a9ca3f78679da04de992fdeb35c0eeb8cb5776519d9d9c6202516",
        ("chern", "--space", "P5", "--hypersurface", "5"):
            "f46f50e3e689bf92fe328c7749f066603ab3af65d0b823922795ccfc8a533d23",
        ("chern", "--space", "P6", "--hypersurface", "5"):
            "63044c70f212f7c9aeb0ab8481cd7b267f36cc2c19e3c9a2b4b9fcd9a6a3c8cb",
    }
    for argv, digest in golden.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_degree_below_one_is_a_usage_error(capsys):
    for argv in (
        ("graphs", "--example", "3", "--delta", "-2"),
        ("graphs", "--example", "2", "--delta", "0"),
        ("verify", "--example", "2", "--delta", "-1"),
        ("verify", "--example", "3", "--delta", "0"),
        ("chern", "--space", "P4", "--hypersurface", "-3"),
        ("chern", "--space", "P4", "--hypersurface", "0"),
        ("gw10", "--X", "P4", "--V", "-2"),
        ("gw10", "--X", "P4", "--V", "0", "--insertion", "alpha:1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "at least 1" in err, argv


def test_zero_denominator_is_a_usage_error(capsys):
    for argv in (
        ("gw10", "--X", "P4", "--insertion", "alpha:1/0"),
        ("localize", "--config", "fig7", "--expect", "1/0"),
        ("localize", "--config", "fig7", "--eval", "1/0,1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "zero denominator in '1/0'" in err, argv


def test_eval_takes_two_weights(capsys, monkeypatch):
    # the weights are checked before the diagram is loaded or any locus computed
    def no_work(name):
        raise AssertionError(f"diagram {name} loaded before --eval was checked")

    monkeypatch.setattr(cli, "resolve_problem", no_work)
    for value in ("1", "1,2,3"):
        code, out, err = run(capsys, "localize", "--config", "fig7", "--eval", value)
        assert code == 2 and out == "" and "--eval takes two weights w1,w2" in err, value


def test_invalid_setting_is_a_usage_error(capsys):
    for argv, message in (
        (("thm1", "--n", "0", "--g", "-1"), "genus"),
        (("thm1", "--n", "4", "--g", "-1"), "genus"),
        (("thm1", "--n", "0", "--g", "2"), "dimension"),
        (("dim", "--n", "4", "--g", "-1", "--c1A", "2"), "genus"),
        (("dim", "--n", "0", "--g", "1", "--c1A", "2"), "dimension"),
        (("dim", "--n", "4", "--g", "1", "--k", "-1", "--c1A", "2"), "marked point"),
        (("dim", "--n", "4", "--g", "1", "--c1A", "2", "--AdotV", "-1"), "A.V"),
        (("verify", "--example", "3", "--symbolic", "--delta", "5"), "exclude each other"),
        (("verify", "--example", "2", "--n", "9", "--delta", "2"), "example 1 only"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and message in err, argv


def test_over_bound_or_nested_input_is_a_usage_error(capsys, tmp_path):
    thirteen = ",".join(["12"] + ["0"] * 12)
    nested = _point_diagram(tmp_path, "1", "1", insertion="(" * 300 + "1" + ")" * 300)
    (tmp_path / "power").mkdir()
    power = _point_diagram(tmp_path / "power", "1", "1", insertion="(a1+a2)^100000")
    (tmp_path / "nested_power").mkdir()
    nested_power = _point_diagram(
        tmp_path / "nested_power", "1", "1", insertion="((a1+a2)^64)^64"
    )
    (tmp_path / "product").mkdir()
    # fifty bounded powers (649 characters) would multiply to degree 3,200
    product = _point_diagram(
        tmp_path / "product", "1", "1", insertion="*".join(["(a1+2*a2)^64"] * 50)
    )
    (tmp_path / "twist").mkdir()
    # a twist whose factors mix weight degrees 62 and 43 on lam[0,1]
    twist = _point_diagram(
        tmp_path / "twist", "hodgetwist(3; (a1+a2)^20, a1)", "1",
        base=({"kind": "dm", "g": 3, "n": 1},),
    )
    (tmp_path / "mixed").mkdir()
    # each field parses, but the product mixes weight degrees 1 and 0 on x[0]*x[1]
    mixed = _point_diagram(
        tmp_path / "mixed", "x[0] + x[1]", "1", insertion="a1*x[0] + x[1]",
        base=({"kind": "p1"}, {"kind": "p1"}),
    )
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    # entries that are not JSON objects, terms that is not a list, or labels
    # that are not strings
    pt = {"kind": "point"}
    not_objects = {}
    for i, (payload, message) in enumerate((
        ([{"label": "pt"}], ": a diagram must be an object, not an array"),
        ({"label": "user", "loci": [1]}, ": a locus must be an object, not a number"),
        (
            {"label": "user", "loci": [{"label": "pt", "terms": [1]}]},
            " locus 'pt' term 0: a term must be an object, not a number",
        ),
        (
            {"label": "user", "loci": [{"label": "pt", "terms": "xy"}]},
            " locus 'pt': terms must be an array, not a string",
        ),
        (
            {"label": "user", "loci": [{"label": "pt", "base": [1]}]},
            " locus 'pt': a base factor must be an object, not a number",
        ),
        (
            {"label": "user", "loci": [{"label": 1, "base": [pt]}, {"label": "a", "base": [pt]}]},
            ": a locus label must be a string, not a number",
        ),
        (
            {"label": "user", "loci": [{"label": {"x": 1}, "base": [pt]}]},
            ": a locus label must be a string, not an object",
        ),
        (
            {"label": ["user"], "loci": [{"label": "pt", "base": [pt]}]},
            ": the problem label must be a string, not an array",
        ),
    )):
        path = tmp_path / f"not_object{i}.json"
        path.write_text(json.dumps(payload))
        not_objects[str(path)] = f"{path}{message}"
    # diagram fields of another JSON type, in copies of fig7.json
    fig7 = json.loads((Path(hodge.__file__).parent / "data" / "diagrams" / "fig7.json").read_text())
    loose = {}
    for i, (field, value, message) in enumerate((
        ("weight_swap", "false", "weight_swap must be a boolean, not a string"),
        ("schema_version", True, "schema_version must be an integer, not a boolean"),
        ("schema_version", 1.0, "schema_version must be an integer, not 1.0"),
        ("symmetry_multiplier", 0.5, "symmetry_multiplier must be a string, not 0.5"),
        ("expected", 1.0, "expected must be a string, not 1.0"),
    )):
        path = tmp_path / f"loose{i}.json"
        path.write_text(json.dumps({**fig7, field: value}))
        loose[str(path)] = f"{path}: {message}"
    # factors whose integrals the oracles reject fail on load, naming the locus
    bad_factors = []
    for i, (factor, insertion, deformation) in enumerate((
        ({"kind": "dm", "g": 0, "n": 2}, "1", "1"),
        ({"kind": "dm", "g": 4, "n": 1}, "1", "1"),
        ({"kind": "dm", "g": 1, "n": 13}, "1", "1"),
        ({"kind": "rubber", "g": 5}, "1", "1"),
        ({"kind": "dm", "g": 2, "n": 2000}, "psi[0,1]", "a1 - psi[0,2]"),
        ({"kind": "dm", "g": None, "n": 1}, "1", "1"),
        ({"kind": "dm", "g": -1, "n": 5}, "1", "1"),
        ({"kind": "rubber", "g": 0, "n": 2}, "1", "1"),
        ({"kind": "rubber", "g": 1, "n": -1}, "1", "1"),
        ({"kind": "dm", "g": 1.9, "n": 1}, "1", "1"),
        ({"kind": "dm", "g": True, "n": "1"}, "1", "1"),
    )):
        (tmp_path / f"factor{i}").mkdir()
        bad_factors.append(_point_diagram(
            tmp_path / f"factor{i}", "1", deformation, insertion=insertion, base=(factor,)
        ))
    for argv in (
        ("psi", "--g", "7", "--exponents", "18"),
        ("psi", "--g", "1", "--exponents", thirteen),
        ("hodge", "--g", "4", "--n", "1", "--psi", "9", "--lambda", "0,0,0,0"),
        ("graphs", "--example", "3", "--delta", "13"),
        ("verify", "--example", "3", "--delta", "13"),
        ("hodge", "--g", "1", "--n", "13", "--psi", thirteen, "--lambda", "1"),
        ("chern", "--space", "P7"),
        ("gw10", "--X", "P7"),
        ("verify", "--example", "1", "--n", "7"),
        ("localize", "--config", str(deep)),
        ("localize", "--config", power),
        ("localize", "--config", nested_power),
        ("localize", "--config", product),
        ("localize", "--config", twist),
        ("localize", "--config", mixed),
        *(("localize", "--config", path) for path in loose),
        *(("localize", "--config", path) for path in bad_factors),
        *(("localize", "--config", path) for path in not_objects),
        ("localize", "--config", nested),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), (argv[:2], code, err[:200])
        if argv[-1] in bad_factors:
            assert "locus 'pt': bad factor" in err and time.perf_counter() - start < 1, err
        if argv[-1] in not_objects:
            assert err == f"error: {not_objects[argv[-1]]}\n", err
        if argv[-1] in loose:
            assert err == f"error: {loose[argv[-1]]}\n", err
        if argv[-1] == product:
            assert "locus 'pt': bad insertion expression: weight degree 128 at position 12" in err
            assert time.perf_counter() - start < 1, err
        if argv[-1] == twist:
            assert err.count("\n") == 1 and len(err) < 300, err
            assert "bad obstruction expression: cannot add scalars of degree 62 and 43" in err
        if argv[-1] == mixed:
            assert err == f"error: {mixed} locus 'pt': cannot add scalars of degree 1 and 0\n", err
        if argv[-1] == nested_power:
            assert "locus 'pt': bad insertion expression: nested exponents multiply to 4096" in err
    assert "locus 'pt': bad insertion expression: expression nested too deeply" in err


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "psi", "--g", "notanumber", "--exponents", "1")
    assert code == 2
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, err = run(capsys, "localize", "--config", "no/such/file.json")
    assert code == 2 and "diagram" in err


def test_unreadable_path_is_a_usage_error(capsys, tmp_path, monkeypatch):
    code, out, err = run(capsys, "localize", "--config", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {tmp_path}: cannot read diagram file"), err
    # a data root that is a regular file
    root = tmp_path / "data"
    root.write_text("")
    monkeypatch.setenv("GWVERIFY_DATA_DIR", str(root))
    _reset_data_caches()
    try:
        for argv in (
            ("hodge", "--g", "2", "--n", "0", "--lambda", "3,0"),
            ("localize", "--config", "fig7"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith(f"error: {root}") and "cannot read data file" in err, argv
    finally:
        _reset_data_caches()


def test_non_positive_contact_order_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "dim", "--n", "4", "--g", "3", "--k", "1", "--c1A", "5",
        "--AdotV", "3", "--s", "3,0",
    )
    assert code == 2 and out == ""
    assert err == "error: contact orders must be positive, got (3, 0)\n"


def test_readme_cli_block(capsys, monkeypatch):
    # every command of the README's CLI block runs from the repository root,
    # and a rational in its comment is exactly what it prints
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("gwverify ")]
    assert lines
    monkeypatch.chdir(root)
    rationals = 0
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert code == 0, line
        comment = comment.strip()
        if re.fullmatch(r"-?\d+(/\d+)?", comment):
            assert out == comment + "\n", line
            rationals += 1
    assert rationals  # the comment pattern still matches the block's rationals


def test_unknown_monomial_is_an_input_error(capsys):
    # an off-table residual is reported, never silently zero
    code, _, err = run(
        capsys, "hodge", "--g", "2", "--n", "2", "--psi", "2,2", "--lambda", "1,0"
    )
    assert code == 2 and "no table entry" in err


def test_selftest_command_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert out.count("ok ") == 12


def test_selftest_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--json")
    code2, out2, _ = run(capsys, "selftest", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "PASS"


def test_corrupted_table_reports_error(capsys, tmp_path):
    # a zero denominator in a data file must surface as an ERROR with location
    src = Path(hodge.__file__).parent / "data"
    data = tmp_path / "data"
    shutil.copytree(src, data)
    rubber = data / "tables" / "rubber.json"
    rubber.write_text(rubber.read_text().replace('"1/24"', '"1/0"', 1))
    old = os.environ.get("GWVERIFY_DATA_DIR")
    os.environ["GWVERIFY_DATA_DIR"] = str(data)
    _reset_data_caches()
    try:
        code, out, err = run(capsys, "selftest")
        assert code == 3
        assert "rubber.json" in out + err
    finally:
        if old is None:
            os.environ.pop("GWVERIFY_DATA_DIR", None)
        else:
            os.environ["GWVERIFY_DATA_DIR"] = old
        _reset_data_caches()


def test_selftest_reports_a_table_row_that_disagrees_after_normalisation(capsys, tmp_path):
    # Table 1's lambda_1^6 = 16 lambda_1 lambda_2 lambda_3, so 1/90721 contradicts
    # the other genus-3 rows on load, although no query reads that row
    src = Path(hodge.__file__).parent / "data"
    data = tmp_path / "data"
    shutil.copytree(src, data)
    dm = data / "tables" / "dm_intersections.json"
    dm.write_text(dm.read_text().replace('"1/90720"', '"1/90721"', 1))
    old = os.environ.get("GWVERIFY_DATA_DIR")
    os.environ["GWVERIFY_DATA_DIR"] = str(data)
    _reset_data_caches()
    try:
        code, out, err = run(capsys, "selftest")
        assert code == 3
        assert "ERROR" in out and "PASS" not in out
        assert "entries[3]" in out + err and "entries[4]" in out + err
    finally:
        if old is None:
            os.environ.pop("GWVERIFY_DATA_DIR", None)
        else:
            os.environ["GWVERIFY_DATA_DIR"] = old
        _reset_data_caches()


def test_a_row_off_the_one_point_series_is_an_input_error(capsys, tmp_path, monkeypatch):
    # psi_1^6 lambda_1 on DM(3, 1) doubled: no other row shares its normal
    # form, so only the one-point series catches it.  The query of that key
    # is itself answered by the series, so a table-reading query loads it.
    data = tmp_path / "data"
    shutil.copytree(Path(hodge.__file__).parent / "data", data)
    dm = data / "tables" / "dm_intersections.json"
    dm.write_text(dm.read_text().replace('"7/138240"', '"7/69120"', 1))
    monkeypatch.setenv("GWVERIFY_DATA_DIR", str(data))
    _reset_data_caches()
    try:
        argv = ["hodge", "--g", "3", "--n", "1", "--psi", "6", "--lambda", "1,0,0"]
        assert run(capsys, *argv) == (0, "7/138240\n", "")
        code, out, err = run(capsys, "hodge", "--g", "3", "--n", "0", "--lambda", "6,0,0")
        assert code == 2 and out == ""
        assert (
            "dm_intersections.json: entries[17]: psi=[6] with lambda=[1, 0, 0] has value "
            "7/69120, but the one-point series gives 7/138240" in err
        )
        code, out, _ = run(capsys, "selftest")
        assert code == 3 and "ERROR" in out and "PASS" not in out
    finally:
        monkeypatch.delenv("GWVERIFY_DATA_DIR")
        _reset_data_caches()


def _point_diagram(
    tmp_path, obstruction, deformation, expected=None, insertion="1", base=({"kind": "point"},)
):
    """A one-locus user diagram, over a point unless ``base`` says otherwise:
    over a point its total is insertion*obstruction/deformation."""
    problem = {
        "schema_version": 1,
        "label": "user",
        "symmetry_multiplier": "1",
        "weight_swap": False,
        "source": "test diagram",
        "loci": [
            {
                "label": "pt",
                "base": list(base),
                "insertion": insertion,
                "obstruction": obstruction,
                "deformation": deformation,
                "source": "test locus",
            }
        ],
    }
    if expected is not None:
        problem["expected"] = expected
    path = tmp_path / "user.json"
    path.write_text(json.dumps(problem))
    return str(path)


def test_weight_dependent_total_is_a_failed_check(capsys, tmp_path):
    code, _, err = run(capsys, "localize", "--config", _point_diagram(tmp_path, "a1", "1"))
    assert code == 1 and "weight symbols survive" in err


def test_inhomogeneous_diagram_is_an_input_error(capsys, tmp_path):
    path = _point_diagram(tmp_path, "1", "a1", insertion="a1 + 1")
    code, out, err = run(capsys, "localize", "--config", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "locus 'pt': bad insertion expression" in err
    assert "'a1 + 1'" in err


def test_expectation_mismatch_is_a_failed_check(capsys, tmp_path, monkeypatch):
    path = _point_diagram(tmp_path, "a1", "a1", expected="2")
    code, out, _ = run(capsys, "localize", "--config", path)
    assert code == 1 and "computed 1, expected 2" in out
    # a mismatch that escapes a command is a failed check too, not a usage error
    from gwverify import cli
    from gwverify.errors import ExpectationMismatch

    def mismatch(spec):
        raise ExpectationMismatch("computed 1, expected 2")

    monkeypatch.setattr(cli, "resolve_problem", mismatch)
    code, _, err = run(capsys, "localize", "--config", path)
    assert code == 1 and "computed 1, expected 2" in err


@pytest.mark.parametrize("argv, lines_read", [
    # `gwverify graphs ... | head -n 1`: the reader goes after one line of 6,602
    (["graphs", "--example", "3", "--delta", "12"], 1),
    # a reader gone before the report is printed: it fails at the flush
    (["verify", "--example", "3", "--delta", "2"], 0),
], ids=["after-one-line", "before-any-output"])
def test_a_closed_stdout_ends_the_command_quietly(argv, lines_read):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gwverify.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
