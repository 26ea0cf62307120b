"""The frozenset enumerations of set partitions, kept as the oracle for
`_partitions` (block bitmasks), which every sweep in `hsl` reads, and a
literal fold of restriction masks over them, the oracle for
`hsl.families.partition_masks`.

Each partition is a tuple of frozenset blocks: in sweep order for
`compositions`, by minimum for `set_partitions`."""

from functools import lru_cache, reduce
from operator import or_

from hsl.species import subsets


@lru_cache(maxsize=None)
def compositions(labels: frozenset) -> tuple:
    """All ordered set partitions of `labels` into nonempty blocks, the
    first block sweeping the nonempty subsets in bitmask order."""
    labels = frozenset(labels)
    if not labels:
        return ((),)
    out = []
    for first in subsets(labels):
        if not first:
            continue
        for tail in compositions(labels - first):
            out.append((first,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def set_partitions(labels: frozenset) -> tuple:
    """All unordered set partitions of `labels`, the block of the minimum
    sweeping the subsets of the rest in bitmask order."""
    labels = frozenset(labels)
    if not labels:
        return ((),)
    pivot = min(labels)
    rest = labels - {pivot}
    out = []
    for extra in subsets(rest):
        block = frozenset({pivot}) | extra
        for tail in set_partitions(rest - extra):
            out.append((block,) + tail)
    return tuple(out)


def partition_masks_by_fold(cls, labels: frozenset) -> tuple:
    """inside(pi) for each set partition pi of `labels`, in the order of
    `_partitions` (`set_partitions` reversed): the `|` of cls._inside of
    each block, from cls._inside of the empty set."""
    return tuple(reduce(or_, map(cls._inside, blocks), cls._inside(frozenset()))
                 for blocks in reversed(set_partitions(labels)))
