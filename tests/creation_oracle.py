"""Independent oracle for ``quadtex.fock.creation_from_vector``.

Builds the operator source word by source word: for every word below the
top level and every tile of the vector's support, it rebuilds the prepended
word and looks its index up in ``tf.index``.  The package reads the same
operator off the basis's (first tile, separator, tail) records in one pass
over the target words.  ``glued`` is the gluing rule the oracle reads.
"""

from __future__ import annotations

from quadtex.algebra import QuadVector
from quadtex.fock import SEP_ETA, SEP_RHO, FockWord, SparseOp, TruncatedFock
from quadtex.textile import Tile


def glued(previous: Tile, sep: str, following: Tile) -> bool:
    if sep == SEP_ETA:
        return previous.right == following.left
    return previous.bottom == following.top


def creation_from_vector(tf: TruncatedFock, kind: str, xi: QuadVector) -> SparseOp:
    """Creation operator of an arbitrary tile vector.

    ``s`` prepends with an eta separator and consumes the level-0 B-edge
    summand; ``t`` prepends with a rho separator and consumes the A-edge
    summand.  Words pushed past the top level are dropped (truncation).
    """
    ts = tf.ts
    sep = SEP_ETA if kind == "s" else SEP_RHO
    cols: dict[int, dict[int, object]] = {}
    support = [(tile, c) for tile, c in zip(ts.tiles, xi.coeffs) if c != 0]
    for i, word in enumerate(tf.words):
        if word.level == 0:
            wanted = "q" if kind == "s" else "p"
            if word.base_kind != wanted:
                continue
            col = {}
            for tile, c in support:
                matches = (
                    tile.right == word.base if kind == "s" else tile.bottom == word.base
                )
                if matches:
                    j = tf.index[FockWord(tiles=(tile,), seps=())]
                    col[j] = col.get(j, 0) + c
            if col:
                cols[i] = col
            continue
        if word.level >= tf.max_level:
            continue
        first = word.tiles[0]
        col = {}
        for tile, c in support:
            if glued(tile, sep, first):
                extended = FockWord(tiles=(tile,) + word.tiles, seps=(sep,) + word.seps)
                j = tf.index[extended]
                col[j] = col.get(j, 0) + c
        if col:
            cols[i] = col
    return SparseOp(cols)
