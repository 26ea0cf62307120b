"""Copies of a family with some of its maps swapped, for the tests'
mutant families: `Family` keeps exactly its constructor arguments as
attributes, so a copy is built from them."""

from hsl.species import Family


def replace(fam: Family, **changes) -> Family:
    return Family(**{**vars(fam), **changes})
