"""Every public function and class of the package has a reference inside it,
or is on a short named list.

A public module-level function or class of src/supres that no code of the
package uses (as a name, an attribute or an import) is surface that only the
tests keep alive. Docstrings and comments do not count as uses. The allowed
sets below are exact: a new function or class without a reference fails
here, and so does a listed one that gains a reference.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supres"

ALLOWED = {
    # independent oracles that the fast paths are checked against
    "gram.op_A", "gram.op_Atilde_star", "gram.norm_W", "gram.lambda_min_AAtilde",
    "gram.quad_form_poly",
    "trigpoly.eval", "spectrum.dense_extremes",
    "qk_operator.qk_entry", "qk_operator.qk_finite_n", "bound_audit.f_inner_quad",
    # the measured deviations of the interpolation system next to the bounds
    # behind SeparationTooSmall, kept for a deviation_measured report field
    # (ROADMAP item 5)
    "certificate.neumann_bounds",
}

ALLOWED_CLASSES = set()


def unreferenced(kind) -> set:
    """Public module-level definitions of the given ast node type whose name
    the package never uses."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, kind) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {qualified for qualified, name in defined.items() if name not in used}


def test_functions_without_callers_are_the_listed_ones():
    assert unreferenced(ast.FunctionDef) == ALLOWED


def test_classes_without_references_are_the_listed_ones():
    assert unreferenced(ast.ClassDef) == ALLOWED_CLASSES
