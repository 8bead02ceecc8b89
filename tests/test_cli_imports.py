"""The CLI loads only the modules its subcommand runs.

Each check runs in a fresh interpreter and lists the modules that importing
`metricat.cli` and running one request added to `sys.modules`.  No request
loads `dataclasses` or the `inspect` it imports: together they cost a run
about 10 ms.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import support

SRC = Path(__file__).resolve().parents[1] / "src"

# the library modules a subcommand may load on demand, and `random`
DEFERRED = {f"metricat.{name}" for name in (
    "coarse", "continuity", "dagger", "fixedpoint", "geometry", "limits", "mapping",
)} | {"random"}
# modules no CLI path may load
NEVER = {"dataclasses", "inspect"}

CLOSURES = {
    "validate": set(),
    "lawvere": set(),
    "metrize": {"coarse"},
    "map-space": {"mapping", "continuity", "limits"},
    "dagger": {"dagger", "continuity", "limits"},
    "continuity": {"continuity", "limits"},
    "fixed-point": {"fixedpoint", "mapping", "continuity", "limits"},
    "limits": {"limits"},
    "gh": {"geometry"},
    "lipschitz": {"geometry"},
    "demo": {"geometry"},
}

PROBE = """
import json, sys
before = set(sys.modules)
from metricat import cli
code = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def loaded_by(argv=None, stdin: str = "") -> tuple[int | None, set[str]]:
    """Exit code and the deferred and never-loaded modules that one fresh
    interpreter loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    extra = [] if argv is None else [json.dumps(argv)]
    proc = subprocess.run([sys.executable, "-c", PROBE] + extra, input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["loaded"]) & (DEFERRED | NEVER)


def test_importing_the_cli_loads_no_subcommand_module():
    assert loaded_by() == (None, set())


def test_the_closures_cover_every_subcommand():
    assert set(CLOSURES) == set(support.cli_documents())


@pytest.mark.parametrize("command", sorted(CLOSURES))
def test_a_subcommand_loads_only_its_own_closure(command):
    argv, document = support.cli_documents()[command]
    code, loaded = loaded_by(["--format", "json"] + argv, json.dumps(document))
    assert code == 0
    assert loaded == {f"metricat.{name}" for name in CLOSURES[command]}


def test_a_malformed_document_loads_no_subcommand_module():
    assert loaded_by(["gh", "-"], '{"x": ') == (2, set())
