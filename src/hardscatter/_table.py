"""The one CSV layout every table of the package is written in.

``# `` comment lines, a header row, then one row per record.  Float cells
are printed with 17 significant digits, so each parses back to exactly the
float64 it came from; integer columns print as integers.  The module is not
named ``_csv``: that would shadow the standard library's ``_csv`` whenever
the package directory itself is on ``sys.path``.
"""

from __future__ import annotations

import numpy as np


def write_csv(path, header_lines, columns) -> None:
    """Write ``columns``, a mapping of column name to equal-length 1-D
    values, as one table preceded by ``header_lines`` as comments.

    Columns of unequal length raise ValueError before the file is opened.
    """
    names = list(columns)
    values = [np.asarray(columns[name]) for name in names]
    if len({len(v) for v in values}) > 1:
        raise ValueError(f"columns of unequal length: {[len(v) for v in values]}")
    row = ",".join(
        "{}" if np.issubdtype(v.dtype, np.integer) else "{:.17g}" for v in values
    ) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(map(row.format, *(v.tolist() for v in values)))
