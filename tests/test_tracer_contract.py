"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` wraps fold3d functions by name, binds some of
their parameters and rewrites the CLI's envelope builder table.  These
tests read it without importing it as a package (so no bytecode is written
next to it) and check that everything it binds still exists, so that
``perfbench/run.py --trace 1`` keeps working.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import fold3d.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# parameters each of the tracer's hooks reads from the bound call
HOOK_PARAMETERS = {
    "numerics.newton_multistart": ("residual", "seeds", "vectorized"),
    "constraints.stacked_residual_grid": ("O",),
    "numerics.grid_oracle": ("resolution", "n_offsets"),
    "meshing.export_envelope_obj": ("path",),
}


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _resolve(name: str):
    """The object a traced name such as "scene.ResultDocument.to_json" denotes."""
    module, _, attrs = name.partition(".")
    obj = importlib.import_module(f"fold3d.{module}")
    for attr in attrs.split("."):
        obj = getattr(obj, attr)
    return obj


def test_traced_names_resolve(tracing):
    names = tracing.traced_names()
    assert names
    for name in names:
        assert callable(_resolve(name)), name


def test_hook_parameters_are_in_signatures(tracing):
    assert set(tracing._HOOKS) == set(HOOK_PARAMETERS)
    for name, params in HOOK_PARAMETERS.items():
        signature = inspect.signature(_resolve(name))
        for param in params:
            assert param in signature.parameters, (name, param)


def test_envelope_builders_are_tuples_of_callables():
    builders = fold3d.cli._ENVELOPE_BUILDERS
    assert builders
    for kind, pair in builders.items():
        assert isinstance(pair, tuple) and pair, kind
        assert all(callable(f) for f in pair), kind
