"""Guards on the package source itself and on the README that documents it."""

import ast
import pathlib

import collapseguard
from collapseguard.experiments import ExperimentConfig

_SRC = pathlib.Path(collapseguard.__file__).parent

# Public definitions that nothing in the package calls, each kept for a named reason:
# criterion 08 compares check_matrix_contraction with sampled directions, and the
# perfbench layer tracer wraps aggregate_exceedance.
_UNCALLED_BY_DESIGN = {"check_matrix_contraction", "aggregate_exceedance"}


def _uncalled_public_definitions(src: pathlib.Path) -> set[str]:
    """Top-level public functions and classes that no module names outside their own
    definition. ``__init__`` re-exports every name, so its references do not count; a
    name counts as referenced wherever it appears as a name or an attribute."""
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined.add(stmt.name)
                names.discard(stmt.name)
            if path.name != "__init__.py":
                referenced |= names
    return defined - referenced


def test_no_public_helper_exists_only_for_its_tests():
    assert _uncalled_public_definitions(_SRC) == _UNCALLED_BY_DESIGN


def test_the_scan_sees_a_helper_nothing_calls(tmp_path):
    for path in _SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "numerics.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef only_for_tests():\n    return only_for_tests\n")
    assert _uncalled_public_definitions(tmp_path) == _UNCALLED_BY_DESIGN | {"only_for_tests"}


def _config_reference() -> str:
    """The "Config reference" section of the README, up to the next heading."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("### Config reference\n", 1)[1].split("\n#", 1)[0]


def _leaf_names(tree: dict):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_names(value)
        else:
            yield key


def test_every_config_field_is_named_in_the_readme():
    reference = _config_reference()
    full = ExperimentConfig.from_dict({"scenario": "dynamics", "seed": 1}).to_dict()
    assert sorted({name for name in _leaf_names(full) if f"`{name}`" not in reference}) == []
