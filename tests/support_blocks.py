"""Per-vector keys from the block forms of the point-equality keys.

`wps.oracle.ClosureEquality.keys` and `wps.geometry._geometric_keys` take a
support and a block of vectors sharing it; the tests ask about vectors in any
order, so `keyed` groups them into blocks by support.
"""


def keyed(block_keys, vectors) -> list:
    """(support, key) for each residue vector, in the given order, where
    block_keys(support, block) returns one key per vector of the block."""
    vectors = [tuple(x) for x in vectors]
    blocks: dict = {}
    for x in vectors:
        blocks.setdefault(tuple(i for i, v in enumerate(x) if v), []).append(x)
    keys = {x: (support, key) for support, block in blocks.items() for x, key in zip(block, block_keys(support, block))}
    return [keys[x] for x in vectors]
