"""The paper's check-only identities live in ``dioph6.identities``, which
neither the package nor the command imports; importing them loads no
module of the standard library that the pipeline does not use; and every
public function of the pipeline is one the pipeline runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import dioph6

PACKAGE_DIR = Path(dioph6.__file__).parent

#: The names that moved to dioph6.identities, by the module they left; a
#: method of Curve became a function of the curve there.
MOVED = {
    "family": (
        "quartic_condition", "map_w", "map_X", "map_u", "plane_curve_value",
        "curve_E", "point_R", "curve_Estar", "point_Tstar", "point_Pstar", "curve_Epp",
        "map_w_constants", "sigma3", "sigma1_from_x", "sigma2_from",
        "three_torsion_value", "three_torsion_condition", "_w_value", "_map_w_constants",
    ),
    "sextuple_engine": (
        "_rho_witnesses", "point_Sprime", "point_half", "order3_check",
        "half_point_check", "square_product_check",
    ),
    "paramfam": (
        "PRODUCT34_CURVE", "PRODUCT34_GENERATOR", "_PRODUCT34_SHIFT",
        "reconstruct_product34_triple", "rank_curve_membership",
        "abc_closed_form", "def_closed_form",
    ),
    "reduction_lab": ("epp_invariants",),
    "exactnum": ("mod_p", "_iroot", "is_squarefree"),
    "weierstrass": (
        "Curve.torsion_order_upto", "Curve.std_quantities", "StdQuantities", "_std_quantities",
    ),
}
#: Names deleted outright, by the module that held them.
DELETED = {
    "family": ("SigmaTriple", "sigma_triple_from_x", "_coprime_sqrt", "_curve_Epp", "_on_curve_E"),
    "paramfam": (
        "FamilyPoint.triple", "_UP", "_F1_FACTORS", "_F2_ROOT", "_prod_hom", "_vanishes",
        "_abc", "_def",
    ),
    "weierstrass": (
        "point", "Curve.neg", "Curve.rhs", "Curve._std", "Curve.scale", "Curve.scale_point",
    ),
    "exactnum": ("isqrt", "is_square", "_PrimeTable.traversed"),
    "sextuple_engine": (
        "VerificationReport._from_rows", "VerificationReport._rows", "VerificationReport._pairs",
    ),
    "reduction_lab": (
        "BadPrimesReport._from_rows", "BadPrimesReport._store", "BadPrimesReport._rows",
        "BadPrimesReport._entries", "BadPrimesReport.entries", "p_minimal_model",
    ),
}
#: Coefficient tables deleted from a tuple that stays, by the tuple: each
#: was another entry's partner at -t (or, for 7t^2 + 1, its value at (q, p)).
DELETED_ENTRIES = {
    "paramfam._D1_FACTORS": ((8, -27, 24, 54, 24, -27, 8),),
    "paramfam._EF_QUADRATICS": ((1, -3, -2), (2, -3, -1), (7, 0, 1)),
    "paramfam._E1_FACTORS": ((3, -14, -42, -30, 51, -18, -12, -2),),
}
#: Names the top-level namespace no longer exports.
NOT_EXPORTED = tuple(
    name.rpartition(".")[2] for names in (*MOVED.values(), *DELETED.values()) for name in names
)
#: Standard-library modules that ``import dioph6, dioph6.cli`` must not load:
#: the value types are plain slotted classes, and the prime table's lock
#: comes from ``_thread``.
NOT_LOADED = ("dataclasses", "inspect", "typing", "threading")
#: Public API that no pipeline code calls, kept on purpose.
KEPT = {
    "weierstrass.Curve.add": "the checked group law; acceptance criterion 04 adds with it",
    "paramfam.catalog_entry": "public lookup of a named catalog example",
    "reduction_lab.classify": "public model API: the reduction type of a curve; the "
    "pipeline classifies the two-torsion model from its cleared integers, and the "
    "tests take this as their reference",
    "exactnum.vp": "the public valuation of a rational, which checks its prime; the "
    "pipeline checks p once and takes valuations through exactnum._rat_vp",
    "exactnum.sqrt_exact": "the public exact root of a rational, and the tests' reference; "
    "both triples take their witnesses without it",
    "sextuple_engine.extend_to_sextuple": "the public extension of a triple with its "
    "certificate; generate runs its group-law and certificate halves with the digit-limit "
    "check between them, so that it certifies no cell whose text it would refuse",
}

_PROBE = """
import importlib, json, sys
import dioph6, dioph6.cli
moved, deleted, not_exported, not_loaded = json.loads(sys.argv[1])
stdlib_loaded = [name for name in not_loaded if name in sys.modules]

def has(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True

print(json.dumps({
    "loaded": "dioph6.identities" in sys.modules,
    "stdlib_loaded": stdlib_loaded,
    "exported": [n for n in not_exported if hasattr(dioph6, n)],
    "left_behind": [
        f"{mod}.{n}"
        for mod, names in [*moved.items(), *deleted.items()]
        for n in names
        if has(importlib.import_module("dioph6." + mod), n)
    ],
}))
"""


def _imports_identities(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("identities" in name for name in names):
            return True
    return False


def test_identities_stay_off_the_import_path():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps([MOVED, DELETED, NOT_EXPORTED, NOT_LOADED])],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == {
        "loaded": False, "stdlib_loaded": [], "exported": [], "left_behind": [],
    }

    importers = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "identities.py" and _imports_identities(path)
    ]
    assert importers == []

    import dioph6.identities as identities

    for names in MOVED.values():
        for name in names:
            assert hasattr(identities, name.rpartition(".")[2]), name


def test_deleted_table_entries_stay_gone():
    for dotted, entries in DELETED_ENTRIES.items():
        mod, _, name = dotted.partition(".")
        table = getattr(importlib.import_module("dioph6." + mod), name)
        assert not set(entries) & set(table), dotted


def _public_and_references(path: Path) -> tuple[list[str], list[tuple[str | None, str]]]:
    """The module's public functions and the public methods of Curve and
    Point, as ``module.name`` or ``module.Class.name``; and every name its
    code references (``ast.Name`` ids and ``ast.Attribute`` attrs) with the
    function or method it sits in, None at module or class level."""
    mod = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = [
        f"{mod}.{node.name}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in ("Curve", "Point"):
            public += [
                f"{mod}.{cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ]
    references: list[tuple[str | None, str]] = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, None, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.Name):
                references.append((owner, child.id))
            elif isinstance(child, ast.Attribute):
                references.append((owner, child.attr))
            inner = owner
            if owner is None and isinstance(child, ast.FunctionDef):
                inner = f"{prefix}.{child.name}"
            visit(child, inner, prefix)

    visit(tree, None, mod)
    return public, references


def test_pipeline_api_is_what_the_pipeline_runs():
    # Names are matched without their owner, so an unrelated attribute of
    # the same name (operator.mul for Curve.mul) counts as a use: the guard
    # can miss dead code, but never flags live code.
    public: list[str] = []
    references: list[tuple[str | None, str]] = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "identities.py":
            names, refs = _public_and_references(path)
            public += names
            references += refs
    unreferenced = {
        qualified
        for qualified in public
        if not any(
            name == qualified.rpartition(".")[2] and owner != qualified
            for owner, name in references
        )
    }
    assert unreferenced == set(KEPT)
