"""Package hygiene: export lists match the modules, no ``assert`` in src, the
README calls only names the package has, and the public options are the
registered ones."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import orbitforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(orbitforge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_existing_names(name):
    module = importlib.import_module(f"orbitforge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"orbitforge.{name}")
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


def test_no_assert_statements_in_src():
    # a certification that rests on assert vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_readme_calls_resolve():
    # a code span written as `name(...)` names a function of the package
    readme = Path(__file__).resolve().parent.parent / "README.md"
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", readme.read_text()))
    assert called
    assert sorted(n for n in called if not hasattr(orbitforge, n)) == []


# Every public parameter with a default, over each module's __all__:
# functions, class constructors and public methods.  Adding or dropping an
# option shows up as a change to this list.
KNOBS = [
    "cli.main(argv=None)",
    "freegroup.ReducedWord(letters=())",
    "pipeline.PipelineConfig(out_csv=None)",
    "pipeline.PipelineConfig(out_json=None)",
    "pipeline.PipelineConfig(phi='balanced')",
    "pipeline.PipelineConfig(retries=5)",
    "pipeline.PipelineConfig(source='random')",
    "pipeline.PipelineConfig(target='random')",
    "pipeline.PipelineConfig(workers=1)",
    "pipeline.PipelineReport(kechris_radius=2)",
    "pipeline.good_observable(gap_below=None)",
    "pipeline.oe_approximate(retries=5)",
    "pipeline.oe_approximate(seed=0)",
    "rearrange.rearrange_line(check=True)",
    "rearrange.round_coupling(check=True)",
    "rewire.rewire(check=True)",
    "spaces.Coupling(counts=None)",
    "spaces.Coupling(denom=None)",
    "spaces.Observable.from_labels(alphabet_size=None)",
]


def _callables(name, obj):
    if not inspect.isclass(obj):
        return [(name, obj)] if callable(obj) else []
    # an exception's constructor is the built-in one, with no signature
    found = [] if issubclass(obj, BaseException) else [(name, obj)]
    for attr, member in vars(obj).items():
        member = getattr(member, "__func__", member)  # class and static methods
        if not attr.startswith("_") and inspect.isfunction(member):
            found.append((f"{name}.{attr}", member))
    return found


def test_public_options_are_registered():
    knobs = []
    for name in MODULES:
        module = importlib.import_module(f"orbitforge.{name}")
        for public in module.__all__:
            for label, fn in _callables(public, getattr(module, public)):
                for param in inspect.signature(fn).parameters.values():
                    if param.default is not inspect.Parameter.empty:
                        knobs.append(f"{name}.{label}({param.name}={param.default!r})")
    assert sorted(knobs) == KNOBS
