"""Row objects built from columns (DESIGN.md section 20).

The generators draw and compute whole columns; operators, state and the
golden fixtures still see one frozen event object per record.  This
module is the step between the two, shared by the NexMark and the cyclic
generator, and holds the one block size both generate by.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import repeat
from typing import Any, TypeVar

import numpy

T = TypeVar("T")

#: events generated per block.  A block's draws and columns are numpy
#: temporaries next to the row objects they turn into, and peak RSS is a
#: high-water mark: one block per call raised the ``inputs`` workload's by
#: a fifth, 4,096 events per block by 3 % at the same speed (section 20
#: has the measurements).  Not a parameter: tests patch it to cross block
#: boundaries on short logs
BLOCK_EVENTS = 4096


def rows_from_columns(cls: type[T], *columns: Sequence[Any]) -> list[T]:
    """One ``cls`` instance per row of ``columns``, given in field order.

    ``cls`` is a ``frozen=True, slots=True`` dataclass without a
    ``__post_init__``.  Its generated ``__init__`` runs one
    ``object.__setattr__`` per field in a Python frame per record; this
    allocates the instances with ``object.__new__`` and fills each slot
    through its descriptor in one C-level ``map`` per column.  The
    instances are indistinguishable from constructed ones (``==``,
    ``repr``, ``hash``, pickle bytes, ``FrozenInstanceError`` on
    assignment).  A numpy column is converted with ``tolist()`` first, so
    fields hold Python ``int``/``float`` and never a numpy scalar, whose
    ``repr`` differs.
    """
    names: tuple[str, ...] = cls.__slots__  # type: ignore[attr-defined]
    if len(columns) != len(names):
        raise TypeError(f"{cls.__name__} has fields {names}, "
                        f"got {len(columns)} columns")
    count = len(columns[0])
    rows = list(map(object.__new__, repeat(cls, count)))
    for name, column in zip(names, columns):
        if len(column) != count:
            raise ValueError(f"unequal column lengths: {count} rows, "
                             f"{len(column)} values of {name!r}")
        values = column.tolist() if isinstance(column, numpy.ndarray) else column
        deque(map(getattr(cls, name).__set__, rows, values), maxlen=0)
    return rows
