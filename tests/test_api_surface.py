"""Every top-level name and public method in src/twistsel has a caller in src/.

A top-level function or class, public or private, counts as used through a
name load, an import alias or a `module.name` attribute anywhere in src/, or
through an entry of the TARGETS tuple in perfbench/tracer.py (read from that
file). A public method or property, and a public field of a record (a
NamedTuple, a subclass of one, or a class with __slots__), counts as used
only through an attribute access `.name` in src/. Tests do not count: a
helper that only tests call belongs in a test oracle, and a field that only
tests read is work done for nothing on every call.

More guards: no function in src/ is cached unless CACHES_ALLOWED names it,
each test oracle imports from the library only the names that ORACLE_IMPORTS
lists for it, no module of src/ imports a private name of another (a helper
that a second module needs is public, or moves to its one caller), and
importing `checker` loads no `numfield`, which only the torsion-field tower
and the golden suite read.
"""

import ast
import importlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from twistsel import (
    checker,
    curves,
    dirichlet,
    divpoly,
    golden,
    numfield,
    quadforms,
    rayclass,
    reduction,
)
from twistsel.errors import InvalidParameterError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twistsel"
TESTS = ROOT / "tests"
TRACER = ROOT / "perfbench" / "tracer.py"

# record fields kept without a reader in src/, each with its reason
UNREAD_FIELDS_ALLOWED = frozenset({
    # provenance: which ramification predicate built the S-sets, for output rows to report
    "checker.SSets.predicate_used",
    # provenance: which splitting test decided the shape, for output rows to report
    "numfield.SplittingShape.via",
})

# lru_cache / cache decorators kept in src/, each with the gain it was measured
# to earn; none is kept: curve-level facts travel in the records that hold them
CACHES_ALLOWED: dict[str, str] = {}

# the library names each tests/oracle_*.py may import, in groups that share
# one reason: a record or exception type the comparison is made in, or a
# primitive that another test checks. An oracle that imported the function it
# checks would compare that function with itself.
ORACLE_IMPORTS = {
    "oracle_checker": {
        "checker.ArtinClass checker.Clause checker.ConditionReport checker.Overall "
        "checker.Verdict": "the report types, compared field by field",
        "curves.CurveQ dirichlet.DirichletPredicate reduction.LocalReduction "
        "reduction.ReductionKind": "the input and reduction record types",
        "errors.InvalidParameterError errors.UnsupportedError": "refusals are compared by type",
        "curves.minimal_model reduction.conductor reduction.local_reduction":
            "local data, checked by oracle_tate and the published conductors in test_reduction",
        "intmath.is_prime intmath.is_squarefree intmath.kronecker quadforms.field_discriminant":
            "arithmetic primitives, checked in test_intmath and test_quadforms",
    },
    "oracle_dirichlet": {
        "errors.InvalidParameterError": "refusals are compared by type",
        "intmath.factorint intmath.is_prime": "factoring primitives, checked in test_intmath",
    },
    "oracle_ec": {
        "curves.CurveQ curves.PointQ": "the curve and point types",
        "curves.minimal_model curves.quadratic_twist":
            "model changes, checked in test_curves and test_fuzz by the transform identity",
        "errors.InvalidParameterError": "refusals are compared by type",
    },
    "oracle_poly": {
        "errors.InvalidParameterError": "refusals are compared by type",
        "polyzq.ZX polyzq._PackedMod polyzq._fp_gcdex polyzq._zx_trunc polyzq.fp_divmod "
        "polyzq.fp_gcd polyzq.fp_monic polyzq.fp_mul polyzq.fp_sub polyzq.zx_add polyzq.zx_deg "
        "polyzq.zx_mul polyzq.zx_mul_scalar polyzq.zx_sub":
            "the base F_p[x] and Z[x] arithmetic under the factorizer, checked in test_polyzq",
        "polyzq.fp_factor":
            "the factorization mod p that Dedekind's criterion reads, checked in test_polyzq",
    },
    "oracle_rayclass": {
        "errors.InvalidParameterError errors.PreconditionError": "refusals are compared by type",
        "intmath.factorint intmath.kronecker intmath.log_p intmath.sqrt_mod intmath.xgcd "
        "quadforms.field_discriminant": "arithmetic primitives, checked in test_intmath and test_quadforms",
        "quadforms.ell_part rayclass.form_with_coprime_a":
            "the class-group ell-part and an ideal prime to M; stated, not yet removed",
    },
    "oracle_tate": {
        "curves.CurveQ reduction.LocalReduction reduction.ReductionKind":
            "the input and reduction record types",
        "curves.translated curves.weierstrass_invariants":
            "coordinate changes, checked in test_curves",
        "errors.InvalidParameterError errors.PreconditionError": "refusals are compared by type",
        "intmath.is_prime intmath.legendre intmath.valuation polyzq.fp_gcd":
            "arithmetic primitives, checked in test_intmath and test_polyzq",
    },
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


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(
        isinstance(base, ast.Name) and base.id == "NamedTuple"
        or isinstance(base, ast.Attribute) and base.attr == "NamedTuple"
        for base in node.bases
    )


def _annotated_fields(node: ast.ClassDef) -> list[str]:
    return [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _slot_fields(node: ast.ClassDef) -> list[str]:
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            return list(ast.literal_eval(item.value))
    return []


def _named_tuples(tree: ast.Module) -> dict[str, list[str]]:
    """The annotated fields of each top-level NamedTuple class of a module."""
    return {
        node.name: _annotated_fields(node)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_named_tuple(node)
    }


def _record_fields(node: ast.ClassDef, named_tuples: dict[str, list[str]]) -> list[str]:
    """The fields of a record class: the annotated fields of a NamedTuple,
    those of a NamedTuple base in the same module, and the names in __slots__."""
    fields = _annotated_fields(node) if _is_named_tuple(node) else []
    for base in node.bases:
        if isinstance(base, ast.Name):
            fields += named_tuples.get(base.id, [])
    return fields + _slot_fields(node)


def _definitions(trees: dict[str, ast.Module]):
    """(module, kind, name) for top-level defs, and public methods and record fields."""
    for mod, tree in trees.items():
        named_tuples = _named_tuples(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield mod, "top", node.name
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield mod, "method", f"{node.name}.{item.name}"
                for field in _record_fields(node, named_tuples):
                    if _public(field):
                        yield mod, "field", f"{node.name}.{field}"


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


def _allowed_oracle_imports(stem: str) -> set[str]:
    return {name for group in ORACLE_IMPORTS.get(stem, {}) for name in group.split()}


def oracle_library_imports(tests: Path = TESTS) -> dict[str, set[str]]:
    """The twistsel names each tests/oracle_*.py imports, as module.name; a
    whole module imported is named by itself."""
    out = {}
    for path in sorted(tests.glob("oracle_*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twistsel"):
                mod = node.module.removeprefix("twistsel").lstrip(".")
                names |= {f"{mod}.{a.name}" if mod else a.name for a in node.names}
            elif isinstance(node, ast.Import):
                names |= {a.name for a in node.names if a.name.startswith("twistsel")}
        out[path.stem] = names
    return out


def unlisted_oracle_imports(tests: Path = TESTS) -> list[str]:
    """"oracle: module.name" for each library name an oracle imports that
    ORACLE_IMPORTS does not list for it."""
    return sorted(
        f"{stem}: {name}"
        for stem, names in oracle_library_imports(tests).items()
        for name in names - _allowed_oracle_imports(stem)
    )


def test_oracles_import_only_the_listed_library_names():
    assert unlisted_oracle_imports() == []
    # and the table lists nothing that an oracle no longer imports
    imports = oracle_library_imports()
    assert {stem: _allowed_oracle_imports(stem) for stem in ORACLE_IMPORTS} == {
        stem: names for stem, names in imports.items() if names
    }


def test_oracle_guard_sees_an_oracle_import_the_function_it_checks(tmp_path):
    for path in TESTS.glob("oracle_*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    text = (tmp_path / "oracle_checker.py").read_text()
    anchor = "    Verdict,\n)\n"
    assert text.count(anchor) == 1
    (tmp_path / "oracle_checker.py").write_text(text.replace(anchor, "    Verdict,\n    twist_rules,\n)\n"))
    assert unlisted_oracle_imports(tmp_path) == ["oracle_checker: checker.twist_rules"]


def private_cross_imports(src: Path = SRC) -> dict[str, set[str]]:
    """module.name for each private name a module of src/ imports from another."""
    out = {}
    for path in sorted(src.glob("*.py")):
        names = {
            f"{node.module}.{a.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for a in node.names
            if a.name.startswith("_")
        }
        if names:
            out[path.stem] = names
    return out


def test_no_private_name_crosses_a_module():
    assert private_cross_imports() == {}


def test_private_import_guard_sees_a_new_one(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    text = (tmp_path / "numfield.py").read_text()
    anchor = "    ZX,\n    fp_factor,\n"
    assert text.count(anchor) == 1
    planted = text.replace(anchor, "    ZX,\n    _zx_trunc,\n    fp_factor,\n")
    (tmp_path / "numfield.py").write_text(planted)
    assert private_cross_imports(tmp_path) == {"numfield": {"polyzq._zx_trunc"}}


def test_every_cache_is_allowed():
    assert cached_functions() == set(CACHES_ALLOWED)
    for name in CACHES_ALLOWED:
        mod, fn = name.split(".")
        cached = getattr(importlib.import_module(f"twistsel.{mod}"), fn)
        assert cached.cache_parameters()["maxsize"] is not None, name


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


def test_guard_sees_an_unread_record_field(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # one unread field planted in a NamedTuple, one in the __slots__ of a
    # class and one in the NamedTuple base of a validating type
    plants = [
        ("checker.py", "    undetermined_reason: str | None = None\n", "    orphan_bound: int = 0\n"),
        ("curves.py", '"c6", "disc"', ', "orphan_slot"'),
        ("curves.py", "    y: Fraction | None\n", "    orphan_coordinate: int\n"),
    ]
    for name, anchor, added in plants:
        text = (tmp_path / name).read_text()
        assert text.count(anchor) == 1
        (tmp_path / name).write_text(text.replace(anchor, anchor + added))
    assert uncalled_api(tmp_path) == [
        "checker.SelmerBound.orphan_bound",
        "curves.CurveQ.orphan_slot",
        "curves.PointQ.orphan_coordinate",
    ]


E11A3 = curves.CurveQ(0, -1, 1, 0, 0)
RULES = checker.twist_rules(checker.hypothesis_check(E11A3, 5))

# every record type of src/twistsel, each built by the call that makes it in use
RECORDS = {
    "SSets": lambda: RULES.ssets,
    "Clause": lambda: checker.evaluate_admissibility(RULES, -37)[0].clauses[0],
    "ConditionReport": lambda: checker.evaluate_admissibility(RULES, -13)[0],
    "HypothesisReport": lambda: checker.hypothesis_check(E11A3, 5),
    "SymbolRule": lambda: RULES.symbols[0],
    "TwistRules": lambda: RULES,
    "SelmerBound": lambda: checker.certify(RULES, -181).bound,
    "SandwichResult": lambda: checker.certify(RULES, -181).sandwich,
    "Certificate": lambda: checker.certify(RULES, -181),
    "CurveQ": lambda: curves.curve_from_string("[1/2,0,-3/4,0,1]"),
    "PointQ": lambda: divpoly.rational_ell_torsion_point(E11A3, 5),
    "DirichletPredicate": lambda: dirichlet.DirichletPredicate(11, 5, (1,)),
    "LocalReduction": lambda: reduction.local_reduction(E11A3, 11),
    "SupersingularResult": lambda: reduction.is_supersingular(
        E11A3, reduction.local_reduction(E11A3, 5)
    ),
    "EllPart": lambda: quadforms.ell_part(-724, 5),
    "ClassGroupData": lambda: quadforms.class_group_structure(-724),
    "_Component": lambda: rayclass._components(quadforms.principal_form(-724), (13,))[0],
    "RayClassData": lambda: rayclass.ray_class_data(-724, (13,), 5),
    "DivisionPoly": lambda: divpoly.division_polynomial(E11A3, 5),
    "FactorShape": lambda: divpoly.psi_factor_shape(E11A3, 5, 2),
    "NumberFieldDef": lambda: numfield.number_field([-2, 0, 0, 1]),
    "SplittingShape": lambda: numfield.dedekind_split(numfield.number_field([-2, 0, 0, 1]), 5),
    "CaseResult": lambda: golden._case_psi3_shape(),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_picklable_and_named_in_repr(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    first = repr(record).split("(", 1)[1].split("=", 1)[0]
    assert repr(record).startswith(f"{name}({first}=") and first.isidentifier()
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):  # no __dict__ either
        record.orphan = None
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and hash(back) == hash(record)


@pytest.mark.parametrize(
    "name, change",
    [
        ("PointQ", {"y": None}),
        ("DirichletPredicate", {"exponents": (0,)}),
        ("NumberFieldDef", {"minpoly": (1, 2)}),
    ],
)
def test_validating_records_refuse_a_bad_replace(name, change):
    record = RECORDS[name]()
    with pytest.raises(InvalidParameterError):
        record._replace(**change)
    assert record._replace() == record


def test_record_table_names_every_record_class():
    records = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        named_tuples = _named_tuples(tree)
        records |= {
            node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef) and _record_fields(node, named_tuples)
        }
    # a validating type is named, not the NamedTuple base that holds its fields
    bases = {"_PointQTuple", "_DirichletPredicateTuple", "_NumberFieldDefTuple"}
    assert records - bases == set(RECORDS)


def _fresh_python(code: str, *args: str) -> str:
    """The stdout of `code` run in a fresh interpreter, with src/ as its argv[1]."""
    # -S: no site hooks, so only what twistsel.cli loads is seen; -B: no
    # bytecode written into src/, which -I would allow whatever the environment
    return subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC.parent), *args],
        capture_output=True, text=True, check=True,
    ).stdout


def _modules_after_import(module: str) -> set[str]:
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import twistsel.{module}, json; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    return set(json.loads(_fresh_python(code)))


def test_checker_import_loads_no_numfield():
    # the torsion-field tower lives in numfield; no check or search builds one
    loaded = _modules_after_import("checker")
    assert "twistsel.divpoly" in loaded and "twistsel.numfield" not in loaded


def test_cli_import_loads_no_dataclass_machinery():
    assert not [p.name for p in SRC.glob("*.py") if "dataclass" in p.read_text()]
    assert not {"dataclasses", "inspect"} & _modules_after_import("cli")


def test_cli_import_loads_no_process_pool():
    # search imports the pool only when a scan starts one
    pool_stack = {
        "concurrent.futures", "logging", "multiprocessing", "pickle", "socket", "subprocess"
    }
    assert not pool_stack & _modules_after_import("cli")


def test_cli_calls_import_no_module():
    # whatever a call needs is loaded at start-up, so no call pays for an import
    # (argparse's own locale and shutil included) inside its timed work
    code = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import twistsel.cli
before = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(twistsel.cli.main(argv))
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""
    calls = [
        ["check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d=-7"],
        ["search", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--range=-200:-3", "--format", "csv"],
        ["factor-shape", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--degree-bound", "1"],
    ]
    assert json.loads(_fresh_python(code, json.dumps(calls))) == [[0, 0, 0], []]
