"""Config fuzz: one hostile leaf in a bundled config never escapes ``cli.run``.

Each trial replaces one leaf (a section value or a list element) of a bundled
config with a hostile value and runs one command in-process. Whatever the
value, the command must end with a typed exit code, and a failure must say
why on one ``error:`` or ``numerical failure:`` line of stderr.
"""

import contextlib
import importlib.resources
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantromon.cli import run

CONFIG_DIR = importlib.resources.files("quantromon") / "configs"
CONFIGS = {name: json.loads((CONFIG_DIR / f"{name}.json").read_text())
           for name in ("reference_device", "sample_a", "sample_b", "sample_c")}

HOSTILE = (None, "x", True, [1.0], 0, -1, math.nan, math.inf, 1e308, 2**70)
COMMANDS = {
    "energies": ["energies"],
    "spectrum": ["spectrum", "--trunc", "8x8"],
    "chi-sweep": ["chi-sweep"],
    "t1-model": ["t1-model"],
    "phase": ["phase"],
}
PREFIXES = {1: "error: ", 2: "numerical failure: "}


def _leaves(node, path=()):
    """Paths of every scalar in a JSON tree: dict keys and list indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


LEAVES = [(name, path) for name, cfg in CONFIGS.items() for path in _leaves(cfg)]


def _with_leaf(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@settings(max_examples=100, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(HOSTILE),
       command=st.sampled_from(sorted(COMMANDS)))
@example(leaf=("reference_device", ("circuit", "c_j")), value=1e308, command="spectrum")
def test_hostile_leaf_gives_typed_exit(leaf, value, command):
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(_with_leaf(CONFIGS[name], path, value)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(COMMANDS[command] + ["--config", str(config)])
    assert code in (0, 1, 2)
    if code:
        diagnostics = [line for line in err.getvalue().splitlines()
                       if line.startswith(tuple(PREFIXES.values()))]
        assert len(diagnostics) == 1, err.getvalue()
        assert diagnostics[0].startswith(PREFIXES[code])
