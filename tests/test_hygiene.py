"""Package hygiene: export lists match the modules, no ``assert`` in src, no
integer cast of an input outside ``_as_int64``, no permutation test outside
``_as_permutation``, no stable sort, no inverse table of a generator
(the public ``inverse_permutation`` is the one caller of its kernel), no
call of the word-statistics kernel ``_cell_rule`` outside ``weak.py``, no
step of a word's translate by a letter outside ``freegroup.py``, no
cache in an object's ``__dict__``,
no file or stdout written outside ``cli._write_all``, the README calls only
names the package has, and the public names and options are the registered
ones."""

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


_INT_DTYPE = re.compile(r"u?int(8|16|32|64|c|p)?")


def _is_int_dtype(node) -> bool:
    name = getattr(node, "attr", getattr(node, "id", getattr(node, "value", None)))
    return isinstance(name, str) and _INT_DTYPE.fullmatch(name) is not None


def _integer_casts(tree):
    """``(function, line)`` of each integer cast of a parameter or ``self.`` field.

    A cast is ``np.asarray`` or ``np.array`` with an integer dtype, or
    ``.astype`` to one.  ``_as_int64`` is the one function allowed to cast.
    """
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "_as_int64":
            continue
        args = fn.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}

        def is_input(node) -> bool:
            if isinstance(node, ast.Name):
                return node.id in params
            if isinstance(node, ast.Attribute):
                return getattr(node.value, "id", None) == "self"
            # getattr(sigma, "sigma", sigma) reads a parameter too
            return (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and any(is_input(arg) for arg in node.args)
            )

        for call in ast.walk(fn):
            # only calls have a func; np.asarray(...) and x.astype(...) are attributes
            if not isinstance(getattr(call, "func", None), ast.Attribute):
                continue
            dtypes = [k.value for k in call.keywords if k.arg == "dtype"]
            if call.func.attr in ("asarray", "array") and call.args:
                operand, dtypes = call.args[0], dtypes + call.args[1:2]
            elif call.func.attr == "astype":
                operand, dtypes = call.func.value, dtypes + call.args[:1]
            else:
                continue
            if is_input(operand) and any(map(_is_int_dtype, dtypes)):
                yield fn.name, call.lineno


_CAST_SAMPLES = """
def flagged(p, s):
    a = p.astype(np.int64, copy=False)
    b = np.asarray(getattr(s, "sigma", s), dtype=np.int64)
    c = np.array(p, np.int32)
class C:
    def __post_init__(self):
        d = np.asarray(self.sigma, dtype=int)
def kept(p, pi):
    e = np.asarray(p)
    f = np.asarray(p, dtype=np.float64)
    g = pi.counts.astype(np.int64)
    h = np.asarray([v for v in p], dtype="int64")
    return _as_int64(p, "p")
def _as_int64(values, what):
    return values.astype(np.int64)
"""


def test_integer_cast_walk_finds_each_form():
    found = sorted(name for name, _ in _integer_casts(ast.parse(_CAST_SAMPLES)))
    assert found == ["__post_init__", "flagged", "flagged", "flagged"]


def test_integer_inputs_are_cast_only_by_as_int64():
    # a cast of its own truncates 1.7 to 1; _as_int64 refuses it
    found = [
        f"{path.name}:{name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for name, line in _integer_casts(ast.parse(path.read_text()))
    ]
    assert found == []


def _called_name(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _permutation_tests(tree):
    """Line of each permutation test written outside ``_as_permutation``.

    A test is a call of ``is_permutation``, or an injectivity test
    ``np.bincount(...).max()`` (also as ``np.max`` or ``max`` of a bincount).
    """
    own = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_as_permutation"
        for node in ast.walk(fn)
    }
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in own:
            continue
        name = _called_name(call)
        if name == "is_permutation":
            yield call.lineno
        elif name == "max":
            operand = getattr(call.func, "value", None)
            if not isinstance(operand, ast.Call):
                operand = call.args[0] if call.args else None
            if isinstance(operand, ast.Call) and _called_name(operand) == "bincount":
                yield call.lineno


_PERMUTATION_SAMPLES = """
def flagged(p, n):
    if not is_permutation(p):
        ok = permutations.is_permutation(p)
    a = np.bincount(p, minlength=n).max() > 1
    b = np.max(np.bincount(p)) == 1
    c = max(np.bincount(p))
def kept(p, n):
    counts = np.bincount(p, minlength=n)
    d = counts.argmax(), np.bincount(p).sum(), p.max(), np.max(p), max(n, 1)
    return _as_permutation(p, "p")
def _as_permutation(values, what):
    return np.bincount(values).max() > 1
"""


def test_permutation_test_walk_finds_each_form():
    found = sorted(_permutation_tests(ast.parse(_PERMUTATION_SAMPLES)))
    assert found == [3, 4, 5, 6, 7]


def test_permutations_are_tested_only_by_as_permutation():
    # a test of its own drifts from the one every entry point shares
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for line in _permutation_tests(ast.parse(path.read_text()))
    ]
    assert found == []


_STABLE_KINDS = ("stable", "mergesort")


def _stable_sorts(tree):
    """Line of each stable sort: a ``kind="stable"`` or ``"mergesort"``, also
    passed by position to ``sort`` or ``argsort``, a ``return_index=True``,
    with which ``np.unique`` sorts stably, or an ``np.lexsort``, which is
    stable by definition."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if _called_name(call) == "lexsort":
            yield call.lineno
            continue
        kinds = call.args if _called_name(call) in ("sort", "argsort") else []
        kinds = [getattr(a, "value", None) for a in kinds] + [
            getattr(k.value, "value", None) for k in call.keywords if k.arg == "kind"
        ]
        first_index = any(
            k.arg == "return_index" and getattr(k.value, "value", None) is True
            for k in call.keywords
        )
        if first_index or any(isinstance(v, str) and v in _STABLE_KINDS for v in kinds):
            yield call.lineno


_SORT_SAMPLES = """
def flagged(x):
    a = np.argsort(x, kind="stable")
    b = np.sort(x, kind="mergesort")
    x.sort(kind="stable")
    c = np.unique(x, return_index=True)
    d = np.argsort(x, -1, "mergesort")
    e = np.lexsort((x, x))
def kept(x):
    f = np.argsort(x), np.sort(x, kind="quicksort"), x.sort()
    g = np.unique(x, return_index=False), np.unique(x, return_inverse=True)
    return "np.lexsort", "kind='stable'", print("stable")
"""


def test_stable_sort_walk_finds_each_form():
    assert sorted(_stable_sorts(ast.parse(_SORT_SAMPLES))) == [3, 4, 5, 6, 7, 8]


def test_no_stable_sort_in_src():
    # one packed unstable sort (rearrange._stable_order) gives the same order
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for line in _stable_sorts(ast.parse(path.read_text()))
    ]
    assert found == []


def _inverse_tables(tree, kernel: bool = True):
    """Line of each ``.generator(...)`` call, each ``.inverses`` read and,
    with ``kernel``, each call of ``_inverse_permutation``: the ways to build
    and keep the inverse of a generator, n more points per generator."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "inverses":
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "generator":
                yield node.lineno
            elif kernel and "_inverse_permutation" in (
                getattr(func, "attr", None),
                getattr(func, "id", None),
            ):
                yield node.lineno


_INVERSE_SAMPLES = """
def flagged(a, k, parent):
    p = parent[a.generator(-k)]
    q = a.inverses[k - 1]
    for inv in self.action.inverses:
        r = FiniteAction(a.perms).generator(k)
    before = _inverse_permutation(a.perms[k - 1])[near]
    t = permutations._inverse_permutation(perm)
def kept(a, k, parent):
    s = parent[a.perms[k - 1]], a.inverse, a.generators, np.random.Generator
    return generator(k), "a.generator(-k)", "inverses", a.generator
    u = inverse_permutation(perm), _inverse_permutation, "_inverse_permutation(p)"
"""


def test_inverse_table_walk_finds_each_form():
    assert sorted(_inverse_tables(ast.parse(_INVERSE_SAMPLES))) == [3, 4, 5, 6, 7, 8]


def test_no_inverse_table_in_src():
    # a negative letter gathers through its generator and a positive one
    # scatters through it, so no library path needs an inverse; the public
    # inverse_permutation in permutations.py is the one caller of the kernel
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for line in _inverse_tables(
            ast.parse(path.read_text()), kernel=path.name != "permutations.py"
        )
    ]
    assert found == []


def _cell_rule_calls(tree):
    """Line of each call of ``_cell_rule``, by bare name or as an attribute:
    the counting kernel every comparison of word statistics runs through."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "_cell_rule":
            yield node.lineno


_CELL_RULE_SAMPLES = """
def flagged(p, q, k):
    tally, gap = _cell_rule(p, q, k, 1, 1)
    _, gap = spaces._cell_rule(p, q, k, q.size, p.size)
    return orbitforge.spaces._cell_rule(p, p, k, 1, 1)[0](q)
def kept(p, q, k):
    rule, name = _cell_rule, "_cell_rule(p, q, k, 1, 1)"
    return _cell_counts(p, q, k), cell_rule(p, q), _cell_rules(p), a._cell_rule
"""


def test_cell_rule_walk_finds_each_form():
    assert sorted(_cell_rule_calls(ast.parse(_CELL_RULE_SAMPLES))) == [3, 4, 5]


def test_word_statistics_are_compared_only_in_weak():
    # spaces.py defines the kernel; weak.py alone counts and compares word
    # statistics with it, the pipeline's target side included
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        if path.name != "weak.py"
        for line in _cell_rule_calls(ast.parse(path.read_text()))
    ]
    assert found == []


def _letter_steps(tree, perms: bool = True):
    """Line of each reference to ``_preimages`` and, with ``perms``, each
    ``.perms`` read outside a function ``_near_points``: the ways to step a
    word's translate ``(s·h)·P(x) = (h·P)(s^{-1}x)`` by a letter."""
    kept = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_near_points"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        attr = getattr(node, "attr", None)  # set on attributes alone
        names = (getattr(node, "id", None), attr, getattr(node, "name", None))
        if "_preimages" in names:  # a name, an attribute or an import
            yield node.lineno
        elif perms and attr == "perms" and id(node) not in kept:
            yield node.lineno


_LETTER_STEP_SAMPLES = """
from .freegroup import _preimages
def flagged(w, s, points):
    before = freegroup._preimages(w.perms[s - 1], points)
    return _preimages, a.perms
def _near_points(v, w):
    return w.perms.shape != v.perms.shape, preimages(v), "_preimages"
def kept(a):
    return a.rank, a.perm, perms, "w.perms", _preimage
"""


def test_letter_step_walk_finds_each_form():
    tree = ast.parse(_LETTER_STEP_SAMPLES)
    assert sorted(_letter_steps(tree)) == [2, 4, 4, 5, 5]
    assert sorted(_letter_steps(tree, perms=False)) == [2, 4, 5]


def test_word_translates_are_stepped_only_in_freegroup():
    # freegroup._Translates alone steps a translate by a letter, on every
    # point or on some; weak.py reads the generators only to find the points
    # near where two sides differ
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        if path.name != "freegroup.py"
        for line in _letter_steps(
            ast.parse(path.read_text()), perms=path.name == "weak.py"
        )
    ]
    assert found == []


def _dict_uses(tree):
    """Line of each read or write of an object's ``__dict__``, also by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            yield node.lineno
        elif isinstance(node, ast.Constant) and node.value == "__dict__":
            yield node.lineno


_DICT_SAMPLES = """
class C:
    def read(self, key):
        return self.__dict__.get(key)
    def write(self, key, value):
        self.__dict__[key] = value
def by_name(obj):
    return getattr(obj, "__dict__")
def kept(self, obj):
    return self.dict, dict(obj), vars, "a __dict__ in a sentence"
"""


def test_dict_walk_finds_each_form():
    assert sorted(_dict_uses(ast.parse(_DICT_SAMPLES))) == [4, 6, 8]


def test_no_instance_dict_caches_in_src():
    # a cache on a frozen value is a cached_property of that value alone;
    # one kept in its __dict__ can be keyed on another object's identity
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for line in _dict_uses(ast.parse(path.read_text()))
    ]
    assert found == []


_FILE_WRITES = ("write_text", "write_bytes", "open", "mkdir", "unlink")


def _writes_stdout(call) -> bool:
    # sys.stdout.write(...), or stdout.write(...) after a from-import
    owner = getattr(call.func, "value", None)
    stdout = getattr(owner, "attr", getattr(owner, "id", None)) == "stdout"
    return stdout and _called_name(call) in ("write", "writelines")


def _file_writes(tree):
    """``(function, line)`` of each call that writes or removes a file.

    A call is ``write_text``, ``write_bytes``, ``open``, ``mkdir`` or
    ``unlink``, as a method or a function, or a ``write`` or ``writelines``
    on ``stdout``; ``<module>`` is the top level.  ``replace`` is not one:
    ``str.replace`` reads the same as ``Path.replace``.
    """

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                _called_name(child) in _FILE_WRITES or _writes_stdout(child)
            ):
                yield function, child.lineno
            yield from visit(child, function)

    yield from visit(tree, "<module>")


_WRITE_SAMPLES = """
def flagged(path, text):
    path.write_text(text)
    Path(path).write_bytes(b"")
    with open(path, "w") as f:
        path.open("a")
    def inner():
        path.parent.mkdir(parents=True)
    os.unlink(path)
    sys.stdout.write(text)
    stdout.writelines([text])
LOG = open("log.txt", "w")
def kept(path, text):
    tmp = path.read_text().replace("a", "b")
    tmp.replace(path)
    sys.stdout.flush(), sys.stderr.write(text), buffer.write(text)
    return path.read_bytes(), print(text), "write_text", path.opened
"""


def test_file_write_walk_finds_each_form():
    found = sorted(_file_writes(ast.parse(_WRITE_SAMPLES)))
    assert found == [
        ("<module>", 12),
        ("flagged", 3),
        ("flagged", 4),
        ("flagged", 5),
        ("flagged", 6),
        ("flagged", 9),
        ("flagged", 10),
        ("flagged", 11),
        ("inner", 8),
    ]


def test_files_are_written_only_by_the_cli_writer():
    # one writer holds the all-or-nothing policy for every command, stdout
    # included; the library returns texts and writes no file
    found = {
        f"{path.name}:{function}"
        for path in sorted(Path(orbitforge.__file__).parent.glob("*.py"))
        for function, _ in _file_writes(ast.parse(path.read_text()))
    }
    assert found == {"cli.py:_write_all"}


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
    "pipeline.good_observable(gap_below=None)",
    "rearrange.rearrange_line(check=True)",
    "rearrange.round_coupling(check=True)",
    "rewire.rewire(check=True)",
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


# Every public name, over each module's __all__.  Adding a name to the API
# shows up as a change to this list.
PUBLIC = [
    "cli.main",
    "freegroup.FiniteAction",
    "freegroup.ReducedWord",
    "freegroup.ball",
    "freegroup.format_word",
    "freegroup.parse_word",
    "freegroup.refine_partition",
    "permutations.CycleDecomposition",
    "permutations.cycle_decomposition",
    "permutations.cycle_min_labels",
    "permutations.inverse_permutation",
    "permutations.is_permutation",
    "permutations.permutation_with_cycle_lengths",
    "pipeline.ConfigError",
    "pipeline.ExperimentResult",
    "pipeline.GeneratorOutcome",
    "pipeline.GoodObservableError",
    "pipeline.PipelineConfig",
    "pipeline.PipelineReport",
    "pipeline.good_observable",
    "pipeline.parse_config",
    "pipeline.run_experiment",
    "pipeline.verify_oe",
    "rearrange.LineBijection",
    "rearrange.PreconditionError",
    "rearrange.RearrangeReport",
    "rearrange.build_tau",
    "rearrange.rearrange_line",
    "rearrange.round_coupling",
    "rewire.CycleOutcome",
    "rewire.RewireReport",
    "rewire.ergodic_profile",
    "rewire.rewire",
    "rewire.verify_same_orbits",
    "spaces.CertificationError",
    "spaces.Coupling",
    "spaces.Dist",
    "spaces.Observable",
    "spaces.empirical_distribution",
    "spaces.empirical_pair_distribution",
    "spaces.joint_pair_distribution",
    "spaces.linf",
    "spaces.mixture_coupling",
    "spaces.product_coupling",
    "weak.TransportCertificate",
    "weak.ball_transport_certificate",
    "weak.kechris_distance",
    "weak.stats_matrix",
]


def test_public_names_are_registered():
    exported = [
        f"{name}.{public}"
        for name in MODULES
        for public in importlib.import_module(f"orbitforge.{name}").__all__
    ]
    assert sorted(exported) == PUBLIC
