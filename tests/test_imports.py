"""What a CLI process imports: each command loads only the package modules
it runs, and none loads dataclasses, inspect or fractions; the package
exports its names lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylmds

SRC = str(Path(weylmds.__file__).resolve().parents[1])

# runs one command, then writes its exit code and every loaded module on
# the last line of stderr; -S leaves out the imports of site and .pth files
PROBE = """import sys
from weylmds.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules), file=sys.stderr)
"""

# the package modules each command runs, besides cli and record
COMMANDS = {
    "patterns --rank 2 --l 0,0 --count-only": {"patterns", "roots"},
    "hcoeff --rank 1 --l 0 --n 3": {"coeffs", "gauss", "patterns", "roots"},
    "verify stable --rank 1 --l 0 --n 3 --p 7":
        {"coeffs", "gauss", "patterns", "roots", "stable"},
    "verify gauss": {"gauss"},
    "verify lemma4": {"patterns", "roots", "tableaux"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_the_modules_it_runs(command):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *command.split()],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC))
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0"
    assert not {"dataclasses", "inspect", "fractions"} & set(loaded)
    package = {name.split(".", 1)[1] for name in loaded
               if name.startswith("weylmds.")}
    assert package == COMMANDS[command] | {"cli", "record"}


def test_exports_resolve_lazily_to_their_module_objects():
    modules = ["chars", "coeffs", "gauss", "laurent", "patterns", "roots",
               "stable", "tableaux"]
    assert len(weylmds.__all__) == 52 and set(modules) <= set(weylmds.__all__)
    for name in modules:  # importing a submodule binds it in the package
        importlib.import_module(f"weylmds.{name}")
    before = dict(vars(weylmds))
    for name in weylmds.__all__:
        obj = getattr(weylmds, name)
        if name in modules:
            assert obj is sys.modules[f"weylmds.{name}"]
        else:
            assert obj is getattr(sys.modules[obj.__module__], name)
    assert dict(vars(weylmds)) == before  # no name is cached on reading
    with pytest.raises(AttributeError):
        weylmds.no_such_name
