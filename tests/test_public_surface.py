"""The public surface is what the package itself uses: every name in the
`__all__` of linalg, means, verify, randgen and sweep is read somewhere in
the package's own code, by the CLI or the proof chain, except for the few
kept for a stated reason."""

import ast
from pathlib import Path

import pytest

import opmeans
from opmeans import linalg, means, randgen, sweep, verify

# names no package code reads, each kept for the reason given
KEPT_UNUSED = {
    "polar": "acceptance criterion 8 certifies this route to |T| and the polar "
             "factor, the one that r5 and lemma-ah take",
    "proof_intermediates": "the acceptance suite's view of X and Y, in the pair's units",
}


def names_read_in_package() -> set[str]:
    """Every Name and Attribute in the package's modules."""
    read = set()
    for path in Path(opmeans.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("module", [linalg, means, verify, randgen, sweep], ids=lambda m: m.__name__)
def test_every_public_name_is_read_in_package(module):
    read = names_read_in_package()
    unread = [name for name in module.__all__ if name not in read and name not in KEPT_UNUSED]
    assert unread == []


def test_kept_names_are_public_and_unread():
    # an exception that the package starts to read, or stops exporting, goes
    read = names_read_in_package()
    public = {name for m in (linalg, means, verify, randgen, sweep) for name in m.__all__}
    assert {name for name in KEPT_UNUSED if name in public and name not in read} == set(KEPT_UNUSED)
