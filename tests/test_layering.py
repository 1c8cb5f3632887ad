"""The paper's check-only identities live in ``dioph6.identities``, which
neither the package nor the command imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import dioph6

PACKAGE_DIR = Path(dioph6.__file__).parent

#: The names that moved to dioph6.identities, by the module they left.
MOVED = {
    "family": ("quartic_condition", "map_w", "map_X", "map_u", "plane_curve_value"),
    "sextuple_engine": (
        "_rho_witnesses", "point_Sprime", "point_half", "order3_check",
        "half_point_check", "square_product_check",
    ),
    "paramfam": (
        "PRODUCT34_CURVE", "PRODUCT34_GENERATOR", "_PRODUCT34_SHIFT",
        "reconstruct_product34_triple", "rank_curve_membership",
    ),
    "reduction_lab": ("epp_invariants",),
}
#: Names deleted outright, by the module that held them.
DELETED = {"family": ("SigmaTriple", "sigma_triple_from_x"), "weierstrass": ("point",)}
#: Names the top-level namespace no longer exports.
NOT_EXPORTED = (
    *(name for names in MOVED.values() for name in names),
    "SigmaTriple", "sigma_triple_from_x", "three_torsion_condition", "point",
)

_PROBE = """
import importlib, json, sys
import dioph6, dioph6.cli
moved, deleted, not_exported = json.loads(sys.argv[1])
print(json.dumps({
    "loaded": "dioph6.identities" in sys.modules,
    "exported": [n for n in not_exported if hasattr(dioph6, n)],
    "left_behind": [
        f"{mod}.{n}"
        for mod, names in {**moved, **deleted}.items()
        for n in names
        if hasattr(importlib.import_module("dioph6." + mod), n)
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
        [sys.executable, "-c", _PROBE, json.dumps([MOVED, DELETED, NOT_EXPORTED])],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == {"loaded": False, "exported": [], "left_behind": []}

    importers = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "identities.py" and _imports_identities(path)
    ]
    assert importers == []

    import dioph6.identities as identities

    for names in MOVED.values():
        for name in names:
            assert hasattr(identities, name), name
