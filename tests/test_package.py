"""The package namespace: public names load on first use, and no record
type pulls in ``dataclasses``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwverify

ROOT = Path(__file__).resolve().parents[1]

# Each step runs in one fresh interpreter and prints the gwverify
# submodules loaded so far, and the other modules loaded since the start.
COLD_START = """
import json, sys
start = set(sys.modules)

def loaded():
    new = set(sys.modules) - start
    print(json.dumps(sorted(m for m in new if m.startswith("gwverify."))))
    print(json.dumps(sorted(m for m in new if not m.startswith("gwverify"))))

import gwverify
loaded()
gwverify.hodge_intersect
gwverify.builtin_problem("fig7")
loaded()
import gwverify.cli
loaded()
import gwverify.selftest
loaded()
"""


def test_cold_start_loads_only_what_is_used():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    (bare, _), (oracle, _), (cli, _), (everything, others) = (
        steps[0:2], steps[2:4], steps[4:6], steps[6:8]
    )
    assert bare == []
    assert "gwverify.hodge" in oracle and "gwverify.localization" in oracle
    for module in ("selftest", "sumformula", "chern", "reports", "cli"):
        assert f"gwverify.{module}" not in oracle
    # the commands that use them import these
    assert "gwverify.cli" in cli
    for module in ("selftest", "sumformula", "chern"):
        assert f"gwverify.{module}" not in cli
    assert "gwverify.cli" in everything and "gwverify.selftest" in everything
    assert "dataclasses" not in others and "inspect" not in others


@pytest.mark.parametrize("name", gwverify.__all__)
def test_every_public_name_is_the_defining_modules_object(name):
    value = getattr(gwverify, name)
    if name != "__version__":
        module = importlib.import_module(f"gwverify.{gwverify._MODULE_OF[name]}")
        assert value is getattr(module, name)
    assert name in dir(gwverify)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gwverify import *", namespace)
    assert set(gwverify.__all__) <= set(namespace)
    assert namespace["psi_intersect"] is importlib.import_module("gwverify.psi").psi_intersect


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gwverify.no_such_name
    # a submodule still imports by name
    from gwverify import closedform

    assert closedform.__name__ == "gwverify.closedform"
