"""Reference walk of a partition's nested entries, by recursion.

A depth-first generator over the ragged array: the differential reference
for `MultiPartition.items`, the cell builder and the walk inside
`validate_array`.  It shares no code with the library.
"""


def walk(node, prefix, depth):
    """Yield ((i_1, ..., i_depth), part) pairs in index order, 1-based."""
    if depth == 0:
        yield prefix, node
        return
    for i, child in enumerate(node, start=1):
        yield from walk(child, prefix + (i,), depth - 1)


def cells(entries, depth):
    """Diagram cells in walk order: the stacked units of each part in turn."""
    return [
        (a,) + tuple(i - 1 for i in idx)
        for idx, part in walk(entries, (), depth)
        for a in range(part)
    ]
