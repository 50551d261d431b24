"""Config fuzz: one hostile leaf in a bundled config never escapes ``cli.run``.

Each trial replaces one leaf (a section value or a list element) of a bundled
config with a hostile value and runs one command in-process. Whatever the
value, the command must end with a typed exit code, and a failure must say
why on one ``error:`` or ``numerical failure:`` line of stderr. When the
unmutated config runs clean, an ``error:`` line (exit 1) must name the
mutated leaf's key or its section. A circuit or coherence value outside its
documented range never exits 0, whatever the command.
"""

import contextlib
import functools
import importlib.resources
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantromon.cli import run

CONFIG_DIR = importlib.resources.files("quantromon") / "configs"
CONFIGS = {name: json.loads((CONFIG_DIR / f"{name}.json").read_text())
           for name in ("reference_device", "sample_a", "sample_b", "sample_c")}

# 10**400 is valid JSON, an integer past the float range
HOSTILE = (None, "x", True, [1.0], 0, -1, math.nan, math.inf, 1e308, 2**70,
           10**400, -10**400)
COMMANDS = {
    "energies": ["energies"],
    "spectrum": ["spectrum", "--trunc", "8x8"],
    "chi-sweep": ["chi-sweep"],
    "t1-model": ["t1-model"],
    "phase": ["phase"],
    "readout-sim": ["readout-sim", "--shots", "2000"],
}
PREFIXES = {1: "error: ", 2: "numerical failure: "}
# the closed form's regime messages (params.regime_warnings), the one warning
# a hostile leaf may raise
REGIME = ("E_LR >> E_J regime violated ", "b = 1: constraint reduction assumes")


def _positive(value):
    return 0.0 < value < math.inf


# the documented range of each circuit and coherence value (CircuitParams,
# CoherenceConfig); q_diel = inf is legal, and means no dielectric loss
IN_RANGE = {
    "circuit": {"l_j": _positive, "c_j": _positive, "l_r": _positive, "c_r": _positive,
                "b": lambda value: 0.0 <= value <= 1.0,
                "d_j": lambda value: -1.0 < value < 1.0},
    "coherence": {"q_diel": lambda value: value > 0.0, "kappa": _positive},
}


def _out_of_range(path, value):
    """Whether ``value`` at ``path`` is outside a documented circuit or
    coherence range; a value that is not a number is outside every range."""
    if path[0] not in IN_RANGE:
        return False
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return not (is_number and IN_RANGE[path[0]][path[-1]](value))


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


def _run(cfg, command):
    """Exit code and stderr of ``command`` on config ``cfg``, in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(COMMANDS[command] + ["--config", str(config)])
    return code, err.getvalue()


@functools.cache
def _clean_exit(name, command):
    """Exit code of ``command`` on the unmutated config ``name``."""
    return _run(CONFIGS[name], command)[0]


@settings(max_examples=100, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(HOSTILE),
       command=st.sampled_from(sorted(COMMANDS)))
@example(leaf=("reference_device", ("circuit", "c_j")), value=1e308, command="spectrum")
@example(leaf=("reference_device", ("circuit", "l_j")), value=1e308, command="spectrum")
@example(leaf=("sample_c", ("circuit", "b")), value=-1, command="phase")
@example(leaf=("sample_c", ("coherence", "q_diel")), value=math.inf, command="t1-model")
@example(leaf=("sample_c", ("readout", "kappa_int")), value=10**400, command="readout-sim")
def test_hostile_leaf_gives_typed_exit(leaf, value, command):
    name, path = leaf
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", category=UserWarning)
        code, err = _run(_with_leaf(CONFIGS[name], path, value), command)
    for w in caught:
        assert w.category is UserWarning and str(w.message).startswith(REGIME), w
    assert code in (0, 1, 2)
    if _out_of_range(path, value):
        assert code != 0, f"{path} = {value!r} is out of range, but {command} exits 0"
    if code:
        diagnostics = [line for line in err.splitlines()
                       if line.startswith(tuple(PREFIXES.values()))]
        assert len(diagnostics) == 1, err
        assert diagnostics[0].startswith(PREFIXES[code])
        if code == 1 and _clean_exit(name, command) == 0:
            key = [part for part in path if isinstance(part, str)][-1]
            assert key in diagnostics[0] or path[0] in diagnostics[0], diagnostics[0]


@pytest.mark.parametrize("leaf", [leaf for leaf in LEAVES if leaf[1][0] in IN_RANGE],
                         ids=lambda leaf: "-".join(map(str, (leaf[0],) + leaf[1])))
def test_out_of_range_leaf_never_exits_0(leaf):
    # every hostile value outside the leaf's range, under every command
    name, path = leaf
    for value in HOSTILE + (1.5, -1.5):
        if _out_of_range(path, value):
            cfg = _with_leaf(CONFIGS[name], path, value)
            for command in COMMANDS:
                assert _run(cfg, command)[0] != 0, (path, value, command)
