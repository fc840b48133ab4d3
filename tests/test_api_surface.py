"""Every top-level name and public method in src/twistsel has a caller in src/.

A top-level function or class, public or private, counts as used through a
name load, an import alias or a `module.name` attribute anywhere in src/, or
through an entry of the TARGETS tuple in perfbench/tracer.py (read from that
file). A public method or property, and a public field of a dataclass,
counts as used only through an attribute access `.name` in src/. Tests do
not count: a helper that only tests call belongs in a test oracle, and a
field that only tests read is work done for nothing on every call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twistsel"
TRACER = ROOT / "perfbench" / "tracer.py"

# dataclass fields kept without a reader in src/, each with its reason
UNREAD_FIELDS_ALLOWED = frozenset({
    # provenance: which ramification predicate built the S-sets, for output rows to report
    "checker.SSets.predicate_used",
    # provenance: which splitting test decided the shape, for output rows to report
    "numfield.SplittingShape.via",
})

# lru_cache / cache decorators kept in src/, each with the gain it was measured
# to earn: hits per hypothesis_check + twist_rules on 11a3 at ell 5 and curve 26
# at ell 7, and the cost of one uncached call
CACHES_ALLOWED = {
    "curves.minimal_model": "4-5 hits; an uncached call takes 0.2-0.4 ms",
    "reduction.local_reduction": "4-5 hits; 0.02-0.04 ms uncached, minimal_model cached",
    "reduction.conductor": "2 hits; 0.01 ms uncached, local_reduction cached",
}


def _tracer_targets() -> set[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {(mod, attr) for mod, attr, _name, _mode in ast.literal_eval(node.value)}
    raise AssertionError("TARGETS not found in perfbench/tracer.py")


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "dataclass"
        or isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id == "dataclass"
        for dec in node.decorator_list
    )


def _definitions(trees: dict[str, ast.Module]):
    """(module, kind, name) for top-level defs, and public methods and dataclass fields."""
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield mod, "top", node.name
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield mod, "method", f"{node.name}.{item.name}"
                    elif (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and _public(item.target.id)
                        and _is_dataclass(node)
                    ):
                        yield mod, "field", f"{node.name}.{item.target.id}"


def _uses(trees: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """(names loaded or imported, attribute names accessed) across src/.

    A load of a def's own name inside its own body is a call to itself, not
    a use: a recursive function with no other caller is still uncalled.
    """
    names: set[str] = set()
    attrs: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees.values():
        visit(tree, frozenset())
    return names, attrs


def uncalled_api(src: Path = SRC, allowed: frozenset[str] = UNREAD_FIELDS_ALLOWED) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    names, attrs = _uses(trees)
    targets = _tracer_targets()
    out = []
    for mod, kind, name in _definitions(trees):
        if kind == "top":
            if name in names or name in attrs or (mod, name) in targets:
                continue
        elif name.split(".")[1] in attrs or f"{mod}.{name}" in allowed:
            continue
        out.append(f"{mod}.{name}")
    return out


def _is_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def cached_functions(src: Path = SRC) -> set[str]:
    """module.function for every def in src/ decorated by lru_cache or cache."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_cache(dec) for dec in node.decorator_list
            ):
                out.add(f"{path.stem}.{node.name}")
    return out


def test_every_cache_is_allowed():
    assert cached_functions() == set(CACHES_ALLOWED)


def test_cache_guard_sees_a_new_cache(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "intmath.py").write_text(
        (tmp_path / "intmath.py").read_text()
        + "\n\n@functools.cache\ndef orphan_cached(n):\n    return n\n"
        + "\n\n@lru_cache(maxsize=8)\ndef orphan_bounded(n):\n    return n\n"
    )
    assert cached_functions(tmp_path) - cached_functions() == {
        "intmath.orphan_cached",
        "intmath.orphan_bounded",
    }


def test_no_uncalled_public_api():
    assert uncalled_api() == []


def test_allowed_unread_fields_are_still_unread():
    assert set(uncalled_api(allowed=frozenset())) == UNREAD_FIELDS_ALLOWED


def test_guard_sees_an_uncalled_function(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "intmath.py").write_text(
        (tmp_path / "intmath.py").read_text()
        + "\n\ndef orphan_helper(n):\n    return n\n"
        + "\n\ndef orphan_recursive(n):\n    return orphan_recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "polyzq.py").write_text(
        (tmp_path / "polyzq.py").read_text()
        + "\n\ndef _orphan_private(f):\n    return f\n\n\nclass _OrphanClass:\n    pass\n"
    )
    (tmp_path / "quadforms.py").write_text(
        (tmp_path / "quadforms.py").read_text().replace(
            "    @property\n    def rank(self)",
            "    def orphan_method(self):\n        return self\n\n    @property\n    def rank(self)",
        )
    )
    (tmp_path / "reduction.py").write_text(
        (tmp_path / "reduction.py").read_text().replace(
            "    verdict: SupersingularVerdict\n    reason: str\n",
            "    verdict: SupersingularVerdict\n    reason: str\n    orphan_field: int = 0\n",
        )
    )
    assert uncalled_api(tmp_path) == [
        "intmath.orphan_helper",
        "intmath.orphan_recursive",
        "polyzq._orphan_private",
        "polyzq._OrphanClass",
        "quadforms.EllPart.orphan_method",
        "reduction.SupersingularResult.orphan_field",
    ]
