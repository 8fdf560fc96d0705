"""A small numpy-backed columnar data frame.

The paper's pipeline leans on pandas for its CSV stage; this package is
the in-repo substitute.  A :class:`Frame` is an ordered mapping of column
name to a 1-D numpy array (numeric dtypes or ``object`` for strings), all
the same length.  Operations are vectorized: filtering is boolean-mask
indexing, grouping sorts once and reduces over contiguous runs, joins
hash the key column.

The API is deliberately tiny but complete for the analytics in this
repository: ``select/filter/sort/head/assign/group_by/join/concat`` plus
CSV and binary columnar ``.npf`` I/O (:mod:`repro.frame.io`).  There is
one reader per format and one dtype-inference rule (the whole CSV):
``read_table`` and its chunked form ``iter_table`` return the same
values, and :class:`NpfAppender` grows a ``.npf`` file one row group at
a time.
"""

from repro.frame.frame import Frame, GroupBy, concat
from repro.frame.io import (
    read_csv,
    write_csv,
    read_npf,
    write_npf,
    sniff_npf,
    read_table,
    iter_npf,
    iter_table,
    NpfAppender,
)

__all__ = [
    "Frame",
    "GroupBy",
    "concat",
    "read_csv",
    "write_csv",
    "read_npf",
    "write_npf",
    "sniff_npf",
    "read_table",
    "iter_npf",
    "iter_table",
    "NpfAppender",
]
