"""Every public function and class of the package has a reference inside it,
or is on a short named list.

A public module-level function or class of src/supres that no code of the
package uses (as a name, an attribute or an import) is surface that only the
tests keep alive. Docstrings and comments do not count as uses. The allowed
sets below are exact: a new function or class without a reference fails
here, and so does a listed one that gains a reference.

The independent references the tests check the package against live in
tests/oracles.py, not in the package; each public one there must be called
by some test module, so none of them outlives its last test.

Every dataclass of the package passes eq=False: they hold numpy arrays, and
the generated field-by-field __eq__ would raise on them ("truth value of an
array ... is ambiguous") and leave the objects unhashable. Identity is the
equality they keep. No dataclass field defaults to None: an optional field
is state that every reader must handle when it is absent, two paths where
one would do.
Every field of a package dataclass is read, as an attribute load, by some
code of the package: a field that only its constructor writes is data no
caller uses.

The floating-point model, the unit roundoff trigpoly.U and trigpoly.gamma,
has one home: no other module spells a power of two at or below 2^-50.

Every FFT of the package is a real one (rfft, irfft) of real rows or
Hermitian half rows: no module calls a complex transform. The sign and
scaling convention of those transforms has one home too: only trigpoly
passes an FFT a norm= keyword (trigpoly.to_spectrum and the sampler).

Each subdomain of the audit has one home as data, its row of
bound_audit._DOMAINS (sampling box and both printed bounds), and one as
logic, its test in bound_audit.classify_domain, which fixes the partition
and its tie-breaking order: no other code spells a subdomain's label, and
nothing dispatches on one by comparison.
"""

import ast
import collections
import dataclasses
import importlib
import math
import pathlib

from supres.bound_audit import DOMAINS

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "supres"

# the one oracle left in the package: perfbench's worker and tests import it
# from supres.spectrum to check spectrum-sweep reports
ALLOWED = {"spectrum.dense_extremes"}

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


def test_every_oracle_is_called_by_a_test():
    defined = {node.name for node in ast.parse((TESTS / "oracles.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    assert defined - called == set()


def test_every_dataclass_compares_by_identity():
    checked, plain = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            for dec in getattr(node, "decorator_list", []):
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                eq = {k.arg: k.value for k in getattr(dec, "keywords", [])}.get("eq")
                name = f"{path.stem}.{node.name}"
                checked.append(name)
                if not (isinstance(eq, ast.Constant) and eq.value is False):
                    plain.append(name)
    assert checked and plain == []


def test_no_dataclass_field_defaults_to_none():
    checked, optional = [], []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"supres.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                checked.append(obj.__qualname__)
                optional += [f"{path.stem}.{obj.__qualname__}.{f.name}"
                             for f in dataclasses.fields(obj) if f.default is None]
    assert checked and optional == []


def test_every_dataclass_field_is_read():
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"supres.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                fields += [(f"{path.stem}.{obj.__qualname__}.{f.name}", f.name)
                           for f in dataclasses.fields(obj)]
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert fields and [name for name, field in fields if field not in read] == []


def _tiny_power_of_two(node) -> bool:
    """node is the literal 2**-k, or a float equal to 2^-k, with k >= 50."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, exp = node.left, node.right
        return (isinstance(base, ast.Constant) and base.value == 2
                and isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub)
                and isinstance(exp.operand, ast.Constant) and exp.operand.value >= 50)
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < node.value <= 2.0**-50 and math.frexp(node.value)[0] == 0.5)


def test_unit_roundoff_is_spelled_once_in_trigpoly():
    found = [path.stem for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if _tiny_power_of_two(node)]
    assert found == ["trigpoly"]


# the complex transforms of numpy.fft (and of scipy.fft, which shares the names)
COMPLEX_FFTS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}


def _called_name(node):
    """The name node calls, as an attribute (np.fft.fft) or a bare name; None
    for a node that is no call."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _complex_fft_call(node) -> bool:
    """node calls a complex FFT."""
    return _called_name(node) in COMPLEX_FFTS


def test_every_fft_in_the_package_is_real():
    found = [path.stem for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if _complex_fft_call(node)]
    assert found == []


def _normed_fft_call(node) -> bool:
    """node calls an FFT of numpy.fft or scipy.fft with a norm= keyword."""
    return (_called_name(node) in COMPLEX_FFTS | {"rfft", "irfft"}
            and any(k.arg == "norm" for k in node.keywords))


def test_fft_convention_is_spelled_once_in_trigpoly():
    found = {path.stem for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if _normed_fft_call(node)}
    assert found == {"trigpoly"}


def test_each_audit_subdomain_has_one_row_and_one_test():
    tree = ast.parse((SRC / "bound_audit.py").read_text())
    labels = set(DOMAINS)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_DOMAINS"])
    keys = [key.value for key in table.keys]
    classify = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "classify_domain")
    returns = [node.value.value for node in sorted(
        (node for node in ast.walk(classify) if isinstance(node, ast.Return)),
        key=lambda node: (node.lineno, node.col_offset))]
    assert tuple(keys) == tuple(returns) == DOMAINS
    spelled = collections.Counter(node.value for node in ast.walk(tree)
                                  if isinstance(node, ast.Constant) and node.value in labels)
    assert spelled == {label: 2 for label in DOMAINS}
    compared = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(operand, ast.Constant) and operand.value in labels
                        for operand in [node.left, *node.comparators])]
    assert compared == []
