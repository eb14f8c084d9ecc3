"""The group-rank limit is one library policy: every constructor that takes a
group rank or a polynomial variable count applies `errors.MAX_GROUP_RANK`
through `require_count`, and the CLI has no rank check of its own."""

import ast
from pathlib import Path

import pytest

from eulerlab.errors import MAX_GROUP_RANK, InputError, ResourceLimitError
from eulerlab.polyring import F2, Poly, parse_poly
from eulerlab.reps import FlagE, RationalFlag, RepE, RepT, Subgroup, group_from_doc

CLI = Path(__file__).resolve().parent.parent / "src" / "eulerlab" / "cli.py"


def _units(rank):
    """The unit covectors of length `rank`, built only when read, so a
    refused rank builds none of them."""
    return ((0,) * i + (1,) + (0,) * (rank - 1 - i) for i in range(rank))


CONSTRUCTORS = {
    "RepE": lambda rank: RepE(rank, {}),
    "RepT": lambda rank: RepT(rank, {}),
    "FlagE": lambda rank: FlagE(rank, _units(rank)),
    "RationalFlag": lambda rank: RationalFlag(rank, _units(rank)),
    "Subgroup": lambda rank: Subgroup(rank),
    "Poly": lambda rank: Poly(F2, rank),
    "Poly.one": lambda rank: Poly.one(F2, rank),
    "Poly.variable": lambda rank: Poly.variable(F2, rank, 1),
    "parse_poly": lambda rank: parse_poly("T1", F2, rank),
    "group_from_doc": lambda rank: group_from_doc({"kind": "elem_abelian_2", "rank": rank}),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_the_limit_is_accepted(name):
    CONSTRUCTORS[name](MAX_GROUP_RANK)


@pytest.mark.parametrize("rank", [MAX_GROUP_RANK + 1, 10**20])
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_a_rank_above_the_limit_is_refused(name, rank):
    with pytest.raises(ResourceLimitError) as exc:
        CONSTRUCTORS[name](rank)
    assert str(exc.value).endswith(f"{rank} is above the limit of {MAX_GROUP_RANK}")


@pytest.mark.parametrize("name, rank, message", [
    ("RepE", -1, "the rank must be nonnegative, got -1"),
    ("FlagE", 0, "the rank must be positive, got 0"),
    ("Subgroup", 0, "the rank must be positive, got 0"),
    ("Poly", -1, "the variable count must be nonnegative, got -1"),
    ("parse_poly", -1, "the variable count must be nonnegative, got -1"),
    ("group_from_doc", 0, "the group rank must be positive, got 0"),
])
def test_a_rank_below_the_bound_is_an_input_error(name, rank, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        CONSTRUCTORS[name](rank)


def test_the_cli_raises_no_resource_limit_of_its_own():
    tree = ast.parse(CLI.read_text())
    raised = [ast.unparse(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    assert raised and [text for text in raised if "ResourceLimitError" in text] == []
