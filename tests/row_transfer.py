"""Independent oracles for ``count_rectangles`` and ``enumerate_rectangles``.

* ``row_transfer_count``: every admissible row of the width is built first;
  building raises ``PatternSpaceTooLarge`` as soon as the rows of some
  width 2..w number more than ``ROW_CAP``, so a test that asks for too
  many rows fails at once.  One weight per row is then carried down the
  height, aggregated by bottom profile at each step.
* ``cell_transfer_count``: a cell-by-cell (broken-profile) transfer over
  small-int edge codes.  A state is the bottom codes of the last w cells
  and the right code of the previous cell.  It runs by rows, with at most
  |E_A|^w * |E_B| states, or on the transposed tiles by columns, with at
  most |E_B|^h * |E_A|, whichever bound is smaller.
* ``listing_order``: a plain row-major depth-first fill with no pruning,
  for the order of the listing.
* ``glue``, the gluing rule the oracles read, and ``validate``, which
  checks both gluing conditions across a patch.
"""

from itertools import product

from quadtex.errors import PatternSpaceTooLarge
from quadtex.subshift import Rectangle

ROW_CAP = 200_000


def glue(direction, first, second):
    """Can ``second`` sit to the right of (or below) ``first``?"""
    if direction == "horizontal":
        return first.right == second.left
    if direction == "vertical":
        return first.bottom == second.top
    raise ValueError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")


def validate(patch):
    """Raise ValueError unless every pair of neighbouring cells glues."""
    cells = patch.cells
    pairs = [("horizontal", a, b) for row in cells for a, b in zip(row, row[1:])]
    for upper, lower in zip(cells, cells[1:]):
        pairs += [("vertical", a, b) for a, b in zip(upper, lower)]
    for direction, first, second in pairs:
        if not glue(direction, first, second):
            raise ValueError(f"{direction} gluing fails between {first!r} and {second!r}")


def rows_of_width(ts, width):
    rows = [(t,) for t in ts.tiles]
    for _ in range(width - 1):
        extended = []
        for row in rows:
            for tile in ts.tiles:
                if glue("horizontal", row[-1], tile):
                    extended.append(row + (tile,))
                    if len(extended) > ROW_CAP:
                        raise PatternSpaceTooLarge(
                            f"more than {ROW_CAP} admissible rows of width {width}"
                        )
        rows = extended
    return rows


def row_transfer_count(ts, height, width):
    if height < 1 or width < 1:
        raise ValueError("rectangle sides must be positive")
    rows = rows_of_width(ts, width)
    weights = {row: 1 for row in rows}
    for _ in range(height - 1):
        by_bottom = {}
        for row, weight in weights.items():
            profile = tuple(t.bottom for t in row)
            by_bottom[profile] = by_bottom.get(profile, 0) + weight
        weights = {row: by_bottom.get(tuple(t.top for t in row), 0) for row in rows}
    return sum(weights.values())


def _transfer(tiles, height, width):
    """Count patches of (top, right, left, bottom) coded tiles cell by cell."""
    wild = -1  # matches any edge: the tops of the first row, the left of a row's first cell
    inside = {}  # (top, left) -> the state's next (bottom, right) inside a row
    at_end = {}  # the same at the end of a row, with the right code reset to wild
    for top, right, left, bottom in tiles:
        for key in product((top, wild), (left, wild)):
            inside.setdefault(key, []).append((bottom, right))
            at_end.setdefault(key, []).append((bottom, wild))
    weights = {(wild,) * (width + 1): 1}  # bottoms, oldest first, then the right code
    for _ in range(height):
        for j in range(width):
            fits = at_end if j == width - 1 else inside
            advanced = {}
            for state, weight in weights.items():
                tail = state[1:width]
                for suffix in fits.get((state[0], state[-1]), ()):
                    key = tail + suffix
                    advanced[key] = advanced.get(key, 0) + weight
            weights = advanced
    return sum(weights.values())


def cell_transfer_count(ts, height, width):
    codes = {}
    tiles = [
        tuple(codes.setdefault(e, len(codes)) for e in (t.top, t.right, t.left, t.bottom))
        for t in ts.tiles
    ]
    n_a = len({e for t in ts.tiles for e in (t.top, t.bottom)})
    n_b = len(codes) - n_a
    if n_b**height * n_a < n_a**width * n_b:
        columns = [(left, bottom, top, right) for top, right, left, bottom in tiles]
        return _transfer(columns, width, height)
    return _transfer(tiles, height, width)


def listing_order(ts, height, width):
    """Every admissible patch, row-major lexicographic in tile order."""
    cells = [[None] * width for _ in range(height)]

    def fill(pos):
        if pos == height * width:
            yield Rectangle(cells=tuple(tuple(row) for row in cells))
            return
        i, j = divmod(pos, width)
        for tile in ts.tiles:
            if j > 0 and not glue("horizontal", cells[i][j - 1], tile):
                continue
            if i > 0 and not glue("vertical", cells[i - 1][j], tile):
                continue
            cells[i][j] = tile
            yield from fill(pos + 1)
        cells[i][j] = None

    return fill(0)
