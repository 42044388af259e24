"""No float-valued random draw can decide an outcome in the package.

Every draw in ``src/invperm`` goes through ``SamplerContext.uniform_below``
or ``SamplerContext.bernoulli_fraction``, or through the exact integer
primitives of numpy's generator: ``Generator.integers``,
``Generator.bytes`` and ``BitGenerator.random_raw``.  The check reads the
source with ``ast`` and looks at the receiver of each attribute, not only
at its name, so ``BetaTable.beta`` is not mistaken for ``Generator.beta``.

A receiver is a generator when it is an ``X.generator``, ``X._gen`` or
``X.bit_generator`` expression, a ``np.random.<constructor>(...)`` call, or
a name bound to one of these in the same function.  A name bound to an
attribute of a generator (``draw = gen.bit_generator.random_raw``) is a
draw of that attribute where it is called.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXACT_DRAWS = {"integers", "bytes", "random_raw"}
# generator attributes that draw nothing themselves
PASS_THROUGH = {"bit_generator"}
GENERATOR_ATTRS = {"generator", "_gen", "bit_generator"}
# the only names of numpy.random the package may use: constructors
NUMPY_RANDOM_NAMES = {"Generator", "SeedSequence", "Philox"}
# raw draws allowed only inside the exact helpers that wrap them
WRAPPED = {"bytes": "uniform_below", "random_raw": "bernoulli_fraction"}


def _dotted(node: ast.AST) -> str:
    """'np.random.Generator' for that attribute chain, '' otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_numpy_random(node: ast.AST) -> bool:
    """True for an ``np.random.X`` or ``numpy.random.X`` attribute."""
    return _dotted(node).split(".")[:2] in (["np", "random"], ["numpy", "random"])


class _Scan:
    """Generator uses and forbidden randomness found in one module."""

    def __init__(self, source: str, filename: str = "<snippet>"):
        self.filename = filename
        self.draws: list[tuple[str, str]] = []  # (function, attribute)
        self.violations: list[str] = []
        tree = ast.parse(source, filename=filename)
        self._imports(tree)
        self._numpy_random(tree)
        self._functions(tree)

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append(f"{self.filename}:{node.lineno}: {what}")

    def _imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        self._flag(node, "imports the float-valued random module")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {alias.name for alias in node.names}
                if node.module == "random" or (node.module == "numpy" and "random" in names):
                    self._flag(node, f"imports from {node.module}")
                elif node.module == "numpy.random" and names - NUMPY_RANDOM_NAMES:
                    self._flag(node, f"imports numpy.random {sorted(names - NUMPY_RANDOM_NAMES)}")

    def _numpy_random(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if _is_numpy_random(node) and isinstance(node, ast.Attribute):
                if len(_dotted(node).split(".")) == 3 and node.attr not in NUMPY_RANDOM_NAMES:
                    self._flag(node, f"uses np.random.{node.attr}")

    def _is_generator(self, node: ast.AST, names: set[str]) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in GENERATOR_ATTRS:
            return True
        if isinstance(node, ast.Call) and _is_numpy_random(node.func):
            return node.func.attr != "SeedSequence"
        return isinstance(node, ast.Name) and node.id in names

    def _functions(self, tree: ast.AST) -> None:
        scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in scopes:
            generators: set[str] = set()
            bound: dict[str, str] = {}  # name -> generator attribute it holds
            for arg in func.args.args + func.args.kwonlyargs:
                if arg.annotation is not None and "Generator" in ast.unparse(arg.annotation):
                    generators.add(arg.arg)
            # two passes, so that a binding made from an earlier binding counts
            for _ in range(2):
                for node in ast.walk(func):
                    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                        continue
                    target, value = node.targets[0], node.value
                    if not isinstance(target, ast.Name):
                        continue
                    if self._is_generator(value, generators):
                        generators.add(target.id)
                    elif isinstance(value, ast.Attribute) and self._is_generator(value.value, generators):
                        bound[target.id] = value.attr
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and self._is_generator(node.value, generators):
                    if node.attr not in PASS_THROUGH:
                        self._draw(func.name, node, node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in bound
                ):
                    self._draw(func.name, node, bound[node.func.id])

    def _draw(self, function: str, node: ast.AST, attr: str) -> None:
        if (function, attr) in self.draws:
            return
        self.draws.append((function, attr))
        if attr not in EXACT_DRAWS:
            self._flag(node, f"{function} draws with Generator.{attr}")
        elif attr in WRAPPED and function != WRAPPED[attr]:
            self._flag(node, f"{function} uses {attr} outside {WRAPPED[attr]}")


def test_package_draws_only_through_exact_primitives():
    draws = {}
    violations = []
    for path in sorted((ROOT / "src" / "invperm").glob("*.py")):
        scan = _Scan(path.read_text(), path.name)
        draws[path.name] = set(scan.draws)
        violations += scan.violations
    assert violations == []
    # the scan sees the raw draws the exact helpers are built on
    assert {("uniform_below", "bytes"), ("bernoulli_fraction", "random_raw")} <= draws["rng.py"]


def test_scan_flags_float_draws_by_receiver():
    """The checker itself: float-valued draws on a generator are caught
    however the generator is reached; a same-named method elsewhere is not."""
    for method in (
        "random",
        "uniform",
        "geometric",
        "hypergeometric",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "beta",
    ):
        for body in (
            f"ctx.generator.{method}(3)",
            f"gen = ctx.generator\n    gen.{method}(3)",
            f"g = np.random.Generator(np.random.Philox(1))\n    g.{method}(3)",
            f"f = self._gen.{method}\n    f(3)",
            f"self.generator.bit_generator.{method}()",
        ):
            scan = _Scan(f"def f(ctx):\n    {body}\n")
            assert len(scan.violations) == 1, (method, body)
    for source in (
        "import random\n",
        "from random import random\n",
        "from numpy.random import default_rng\n",
        "def f():\n    np.random.shuffle(x)\n",
        "def f():\n    return np.random.default_rng(1).integers(3)\n",
        "def f(g: np.random.Generator):\n    return g.random()\n",
    ):
        assert _Scan(source).violations, source
    # BetaTable.beta, and exact draws where they belong, are not flagged
    for source in (
        "def f(table):\n    return table.beta(3, 2)\n",
        "def f(ctx):\n    gen = ctx.generator\n    return gen.integers(0, 5, 3)\n",
        "def uniform_below(self):\n    return self.generator.bytes(4)\n",
    ):
        assert _Scan(source).violations == [], source
    assert _Scan("def f(self):\n    return self.generator.bytes(4)\n").violations
