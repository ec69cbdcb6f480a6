"""Source hygiene, by small ``ast`` scans (neither pyflakes nor ruff is a dependency).

- No module of the package imports a name it never uses.
  ``__init__.py`` is skipped (its imports are re-exports), and so is
  ``from __future__ import annotations``.
- No module names the object dtype, ``sharing.py`` included: a field
  element is a uint64 in every module.
- No public API whose only caller is its own unit test: every public
  function's name appears as a name in the package's code besides its
  own definition, and every public method's name appears as an
  attribute, ``.name``, of an owner that is not a module the file
  imports (so ``np.zeros`` does not count as a call of a method
  ``zeros``).  ``__init__.py`` is skipped.  String literals, ``__all__``
  and docstrings included, and comments do not count as callers.  The
  only exceptions are the references and fixtures in
  ``TEST_REFERENCES``, which tests check code against.
- No module but ``parties.py`` uses ``.record_bytes``: every message
  goes through ``Router.send``, the one place that meters traffic.
- No module but ``federation.py`` uses ``.ids``: sample ids are unique
  within one dataset only, so the protocols name a sample by its
  position in the pooled test data, never by its id.
- No module but ``sharing.py`` shifts by 29, 32 or 61 bits or masks with
  ``0xFFFFFFFF``: word arithmetic on field elements lives with ``M61``.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secshap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.random starts with a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(
        (line, name) for name, line in imported.items() if name not in used)]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Sequence\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Sequence"]


def test_modules_found():
    assert {"protocols.py", "sharing.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def object_dtype_uses(source: str) -> list[str]:
    """Lines whose call arguments or comparisons name the object dtype.

    That is ``object``, ``np.object_``, ``"O"`` or ``"object"`` anywhere
    inside an argument or a compared operand; ``object.__setattr__`` and
    the like name the type, not a dtype, and are not counted.
    """
    tree = ast.parse(source)
    owners = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}

    def is_object(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "object" and id(node) not in owners
                or isinstance(node, ast.Attribute) and node.attr == "object_"
                or isinstance(node, ast.Constant) and node.value in ("O", "object"))

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            operands = [*node.args, *(kw.value for kw in node.keywords)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            continue
        lines.update(sub.lineno for op in operands for sub in ast.walk(op) if is_object(sub))
    return [f"line {line}" for line in sorted(lines)]


def test_scan_finds_object_dtypes():
    source = ("import numpy as np\n"
              "a = np.zeros(3, dtype=object)\n"
              "b = a.astype(object)\n"
              "c = a.dtype == np.object_\n"
              "d = np.empty(2, dtype='O')\n"
              "e = np.zeros(2, dtype=object if d.size else float)\n"
              "object.__setattr__(a, 'x', 1)\n"
              "f = np.asarray(a, dtype=np.uint64)\n"
              "g = a.dtype.kind in 'iuO'\n")
    assert object_dtype_uses(source) == ["line 2", "line 3", "line 4", "line 5", "line 6"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_object_dtype_only_in_sharing(path):
    """No module names the object dtype; the name is from when sharing.py was exempt."""
    assert object_dtype_uses(path.read_text()) == []


def public_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of the module's public functions and its classes' public methods.

    A method's name is qualified by its class: ``Class.method``.
    """
    tree = ast.parse(source)
    scopes = [(tree, ""), *((node, f"{node.name}.") for node in tree.body
                            if isinstance(node, ast.ClassDef))]
    return [(prefix + node.name, node.lineno) for scope, prefix in scopes for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def code_names(source: str) -> list[str]:
    """Every NAME token of the code: no string literal and no comment."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [tok.string for tok in tokens if tok.type == tokenize.NAME]


def method_names(source: str) -> list[str]:
    """Every attribute ``.name`` of the code whose owner is not an imported module."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Public functions whose name the code uses nowhere but in their own ``def``,
    and public methods that the code never calls as an attribute."""
    names = Counter(name for source in sources.values() for name in code_names(source))
    methods = Counter(name for source in sources.values() for name in method_names(source))
    found = []
    for module, source in sorted(sources.items()):
        for qualified, line in public_definitions(source):
            owner, _, name = qualified.rpartition(".")
            if (methods[name] == 0) if owner else (names[name] <= 1):
                found.append(f"{module}:{line} {qualified}")
    return found


# Public code that no package code calls, kept as what tests check the package against.
TEST_REFERENCES = {
    "matmul_oracle": "the plain product every matmul kernel is checked against",
    "delta_reference": "the plaintext transform-reduce map both kernels are anchored to",
    "HEContext.he_rotate": "one step of the rotate-and-add chain he_fold is checked against",
    "random_model": "random models for the model, aggregation and acceptance tests",
}


def test_scan_finds_an_unreferenced_function():
    sources = {
        "a.py": "def used():\n    pass\n\nclass K:\n    def lonely(self):\n        used()\n",
        "b.py": "def _private():\n    pass\n\ndef orphan():\n    pass\n",
        "c.py": ('__all__ = ["exported"]\n\n'
                 "def exported():\n"
                 '    """Unlike ``described()``, this one is named only in __all__."""\n'
                 "\ndef described():\n    pass\n"
                 "\ndef commented():\n    pass  # commented() is never called\n"),
        # a method spelled like a numpy function: np.zeros does not call Grid.zeros
        "d.py": ("import numpy as np\n\n"
                 "class Grid:\n"
                 "    def zeros(self):\n        return np.zeros(1)\n"
                 "    def used(self):\n        pass\n"
                 "\ndef _run(grid):\n    grid.used()\n"),
    }
    assert unreferenced(sources) == [
        "a.py:5 K.lonely", "b.py:4 orphan",
        "c.py:3 exported", "c.py:6 described", "c.py:9 commented",
        "d.py:4 Grid.zeros",
    ]


def test_every_public_function_has_a_caller_in_the_package():
    found = unreferenced({p.name: p.read_text() for p in MODULES})
    assert sorted(entry.split()[1] for entry in found) == sorted(TEST_REFERENCES)


def module_level_scratch(source: str) -> list[str]:
    """Lines that build an ``_Arena`` or a ``threading.local`` outside a function body.

    Such an object is made once, at import, and every caller and every
    thread of the process would share it; a class body and a default
    argument run at import too, so they count.
    """
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
            children = [*getattr(node, "decorator_list", []), *defaults]
        else:
            children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            # a bare local() is threading's, imported by name
            owner = ast.unparse(func.value) if isinstance(func, ast.Attribute) else "threading"
            if name == "_Arena" or (name == "local" and owner == "threading"):
                found.add(node.lineno)
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return [f"line {line}" for line in sorted(found)]


def test_scan_finds_module_level_scratch():
    source = ("import threading\n"
              "from threading import local\n"
              "from . import sharing\n"
              "ARENA = _Arena()\n"
              "TLS = threading.local()\n"
              "class Holder:\n"
              "    tls = local()\n"
              "def run(arena=sharing._Arena()):\n"
              "    mine = _Arena()\n"
              "    scratch = threading.local()\n"
              "    return lambda: _Arena()\n"
              "cache = obj.local()\n")
    assert module_level_scratch(source) == ["line 4", "line 5", "line 7", "line 8"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scratch(path):
    """A buffer belongs to one run, never to the module."""
    assert module_level_scratch(path.read_text()) == []


def record_bytes_uses(source: str) -> list[str]:
    """Lines that use an attribute ``.record_bytes``, called or passed on as a hook."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "record_bytes")]


def test_scan_finds_record_bytes_uses():
    source = ("def record_bytes(sender, receiver, nbytes):\n"
              "    pass\n"
              "meter.record_bytes('dealer', 'server_p', 8)\n"
              "router.send('dealer', 'server_p', 8)\n"
              "hook = self.meter.record_bytes\n")
    assert record_bytes_uses(source) == ["line 3", "line 5"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_router_meters_bytes(path):
    """``Router.send`` is the one caller of ``CostMeter.record_bytes``."""
    assert len(record_bytes_uses(path.read_text())) == (1 if path.name == "parties.py" else 0)


def sample_id_uses(source: str) -> list[str]:
    """Lines that use an attribute ``.ids``."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "ids")]


def test_scan_finds_sample_id_uses():
    source = ("ids = [0, 1]\n"
              "for sid in ds.ids:\n"
              "    pass\n"
              "order = {s: k for k, s in enumerate(shared.ids)}\n"
              "widths = [len(batch.columns) for batch in batches]\n")
    assert sample_id_uses(source) == ["line 2", "line 4"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_federation_reads_sample_ids(path):
    """Sample ids stay in ``ClientDataset``: no protocol relies on them."""
    assert bool(sample_id_uses(path.read_text())) == (path.name == "federation.py")


FIELD_SHIFTS = {29, 32, 61}  # 2^61 = 1 (mod p), 32-bit words, and 2^32 = 2^-29 (mod p)
WORD_MASK = 0xFFFFFFFF
WORD_OPS = {ast.LShift: "shift", ast.RShift: "shift", ast.BitAnd: "mask",
            "left_shift": "shift", "right_shift": "shift", "bitwise_and": "mask"}


def field_word_arithmetic(source: str) -> list[str]:
    """Lines that shift by 29, 32 or 61 bits or mask with ``0xFFFFFFFF``.

    Operators and augmented assignments count, and so do numpy's
    ``left_shift``, ``right_shift`` and ``bitwise_and`` called with such
    a constant.
    """
    def constant(node, values) -> bool:
        return isinstance(node, ast.Constant) and node.value in values

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            op, operands = WORD_OPS.get(type(node.op)), [node.left, node.right]
        elif isinstance(node, ast.AugAssign):
            op, operands = WORD_OPS.get(type(node.op)), [node.target, node.value]
        elif isinstance(node, ast.Call):
            op = WORD_OPS.get(getattr(node.func, "attr", getattr(node.func, "id", None)))
            operands = node.args[:2]
        else:
            continue
        if len(operands) == 2 and (
                op == "shift" and constant(operands[1], FIELD_SHIFTS)
                or op == "mask" and any(constant(x, {WORD_MASK}) for x in operands)):
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_scan_finds_field_word_arithmetic():
    source = ("lo, hi = w @ (x & 0xFFFFFFFF), w @ (x >> 32)\n"
              "y = ((hi << 32) & p) + (hi >> 29)\n"
              "x >>= 61\n"
              "np.right_shift(x, 61, out=s)\n"
              "mask = 0xFFFFFFFF & x\n"
              "low = np.bitwise_and(x, 0xFFFFFFFF)\n"
              "everything = (1 << total) - 1\n"
              "budget = 7 << 19\n"
              "low = x & 0xFF\n"
              "np.left_shift(x, k, out=s)\n")
    assert field_word_arithmetic(source) == [f"line {n}" for n in range(1, 7)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_field_word_arithmetic_only_in_sharing(path):
    """Only ``sharing.py`` takes field elements apart into words or folds them by 2^61."""
    assert bool(field_word_arithmetic(path.read_text())) == (path.name == "sharing.py")
