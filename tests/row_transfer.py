"""The whole-row transfer count, kept as an oracle for ``count_rectangles``.

Every admissible row of the width is built first; building raises
``PatternSpaceTooLarge`` as soon as the rows of some width 2..w number more
than ``cap``.  One weight per row is then carried down the height,
aggregated by bottom profile at each step.
"""

from quadtex.errors import PatternSpaceTooLarge
from quadtex.subshift import DEFAULT_ROW_CAP, glue


def rows_of_width(ts, width, cap=DEFAULT_ROW_CAP):
    rows = [(t,) for t in ts.tiles]
    for _ in range(width - 1):
        extended = []
        for row in rows:
            for tile in ts.tiles:
                if glue("horizontal", row[-1], tile):
                    extended.append(row + (tile,))
                    if len(extended) > cap:
                        raise PatternSpaceTooLarge(
                            f"more than {cap} admissible rows of width {width}"
                        )
        rows = extended
    return rows


def row_transfer_count(ts, height, width, cap=DEFAULT_ROW_CAP):
    if height < 1 or width < 1:
        raise ValueError("rectangle sides must be positive")
    rows = rows_of_width(ts, width, cap)
    weights = {row: 1 for row in rows}
    for _ in range(height - 1):
        by_bottom = {}
        for row, weight in weights.items():
            profile = tuple(t.bottom for t in row)
            by_bottom[profile] = by_bottom.get(profile, 0) + weight
        weights = {row: by_bottom.get(tuple(t.top for t in row), 0) for row in rows}
    return sum(weights.values())
