"""Every tolerance verdict is taken in tolerance.py; rejected values are shown safely."""
import ast
from pathlib import Path

import numpy as np
import pytest

import maxlindag
from maxlindag import (
    Dag,
    ValidationError,
    is_mlcm,
    limit_cdf,
    random_dag,
    random_weighted_model,
    standardize,
)

PACKAGE = Path(maxlindag.__file__).resolve().parent
TOLERANCE_NAMES = {"tol", "ZERO_TOL", "DEFAULT_TOL", "_COLSUM_TOL"}


def _operand_leaves(node):
    # The names and constants an operand is built of by arithmetic alone.
    if isinstance(node, ast.BinOp):
        yield from _operand_leaves(node.left)
        yield from _operand_leaves(node.right)
    elif isinstance(node, ast.UnaryOp):
        yield from _operand_leaves(node.operand)
    else:
        yield node


def _is_tolerance(leaf) -> bool:
    if isinstance(leaf, ast.Name):
        return leaf.id in TOLERANCE_NAMES
    if isinstance(leaf, ast.Attribute):
        return leaf.attr in TOLERANCE_NAMES
    return isinstance(leaf, ast.Constant) and type(leaf.value) is float and 0 < leaf.value < 1e-3


def tolerance_comparisons(source: str) -> list[str]:
    """Comparisons with a tolerance, or a float literal in (0, 1e-3), as an operand."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(_is_tolerance(leaf)
                for operand in (node.left, *node.comparators)
                for leaf in _operand_leaves(operand))
    ]


def test_only_the_tolerance_module_compares_against_a_tolerance():
    found = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerance.py" and (sites := tolerance_comparisons(path.read_text()))
    }
    assert found == {}


INPUT_RULES = {"_node", "_edge", "_count", "_node_count", "_rows", "_seed", "_tail_index",
               "_positive", "_finite_square", "_positive_diagonal", "_is_integer"}


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_plain_value_rule_is_defined_in_the_tolerance_module():
    defined = {
        (module, node.name)
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in INPUT_RULES
    }
    assert defined == {("tolerance.py", name) for name in INPUT_RULES}


def test_the_integer_type_test_is_written_once():
    sites = [
        module
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "integer"
    ]
    assert sites == ["tolerance.py"]


@pytest.mark.parametrize("module, unreached", [("simulate.py", {"generate", "graph"}),
                                               ("taildep.py", {"mlcm"})])
def test_no_module_imports_another_only_to_reach_a_rule(module, unreached):
    imported = {
        node.module
        for node in ast.walk(_package_trees()[module])
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert not imported & unreached


@pytest.mark.parametrize("source, flagged", [
    ("worst < -tol", True),
    ("low = a < b - tol", True),
    ("chi > 1.0 + DEFAULT_TOL", True),
    ("np.abs(c - 1.0).max() > 1e-8", True),
    ("x >= ZERO_TOL", True),
    ("_worst_off(x, y, DEFAULT_TOL) is not None", False),
    ("b > 0", False),
    ("diag <= 0.0", False),
    ("x < 0.5", False),
])
def test_the_guard_reads_operands_only(source, flagged):
    assert bool(tolerance_comparisons(source)) == flagged


HUGE = 10**5000  # 5001 digits, beyond repr's default limit of 4300
HUGE_MESSAGES = {
    "node": (lambda: Dag(3, [(HUGE, 1)]),
             "node <integer of 5001 digits> is not an integer in 1..3"),
    "count": (lambda: random_dag(-HUGE, 0.5, 1),
              "node count must be an integer of at least 1, "
              "got <negative integer of 5001 digits>"),
    "seed": (lambda: random_weighted_model(3, seed_or_rng=-HUGE),
             "seed must be a non-negative integer, got <negative integer of 5001 digits>"),
    "point": (lambda: limit_cdf(random_weighted_model(3, seed_or_rng=1), (HUGE, 1.0), i=1),
              "evaluation point (<integer of 5001 digits>, 1.0) needs one value per "
              "evaluated node, 1, got 2"),
    "point in an object array": (
        lambda: limit_cdf(random_weighted_model(3, seed_or_rng=1),
                          np.array([HUGE, 1.0], dtype=object), i=1),
        "evaluation point [<integer of 5001 digits>, 1.0] needs one value per "
        "evaluated node, 1, got 2"),
    "tol": (lambda: is_mlcm(np.eye(2), HUGE),
            "tol must lie in (0, 1), got <integer of 5001 digits>"),
    "tail index": (lambda: standardize(np.eye(2), -HUGE),
                   "tail index must be finite and positive, "
                   "got <negative integer of 5001 digits>"),
}


@pytest.mark.parametrize("name", list(HUGE_MESSAGES))
def test_an_integer_too_long_for_repr_is_shown_by_its_digit_count(name):
    call, message = HUGE_MESSAGES[name]
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("n, digits", [(9, 1), (10, 2), (-99, 2), (10**4300 - 1, 4300),
                                       (10**4300, 4301), (-(10**4301), 4302)],
                         ids=["9", "10", "-99", "10^4300-1", "10^4300", "-10^4301"])
def test_digit_count_from_the_bit_length(n, digits):
    from maxlindag.tolerance import _digits

    assert _digits(n) == digits
