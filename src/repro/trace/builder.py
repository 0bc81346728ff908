"""The trace container.

A :class:`Trace` is the ordered kernel sequence of one training iteration —
the software-side analogue of the rocProf kernel trace the paper collects
(Sec. 3.1.4).  It knows nothing about time; devices assign that later.

A trace is a read-only view over one immutable
:class:`~repro.trace.kernel_table.KernelTable` — parallel NumPy columns,
produced by the layer-templated generators, rewritten by the passes of
:mod:`repro.trace.passes` and consumed by the vectorized timing and
aggregation paths and the runner cache.  ``trace.kernels`` materializes
the per-kernel :class:`~repro.ops.base.Kernel` objects as a tuple, once
per view, for callers that want objects (tests, exporters, ad-hoc
inspection).  A different kernel sequence is a different trace:
:meth:`Trace.replaced` builds a new table.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.config import BertConfig, TrainingConfig
from repro.ops.base import Component, Kernel, OpClass, Phase, Region
from repro.trace.kernel_table import KernelTable


def _exact_sum(column) -> int:
    """Exact total of an int64 column as a Python int.

    NumPy's int64 ``sum`` wraps silently, so it is used only when
    ``len × max|x|`` proves the running total cannot leave int64; larger
    columns are summed as Python ints.
    """
    if not len(column):
        return 0
    bound = max(int(column.max()), -int(column.min()))
    if len(column) * bound < 2 ** 63:
        return int(column.sum())
    return sum(column.tolist())


class Trace:
    """Ordered kernel sequence of one training iteration.

    Attributes:
        model: model configuration the trace was generated for.
        training: training operating point.
        table: the kernel sequence as an immutable columnar table.
        kernels: the kernel sequence as a tuple, in launch order
            (materialized from the table on first access).
    """

    def __init__(self, model: BertConfig, training: TrainingConfig,
                 table: KernelTable):
        self.model = model
        self.training = training
        self._table = table
        self._kernels: tuple[Kernel, ...] | None = None
        self._totals: tuple[int, int] | None = None

    @classmethod
    def from_table(cls, model: BertConfig, training: TrainingConfig,
                   table: KernelTable) -> "Trace":
        """A trace view over an existing (immutable) columnar table."""
        return cls(model, training, table)

    @property
    def table(self) -> KernelTable:
        return self._table

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """The kernel sequence, materialized once per view."""
        if self._kernels is None:
            self._kernels = tuple(self._table.to_kernels())
        return self._kernels

    def fork(self) -> "Trace":
        """A fresh view over the same table for another caller.

        Views are cheap, and a fork carries none of this view's
        materialized kernels, so a long-lived trace (a memo entry) never
        pins them in memory on a caller's behalf.
        """
        return Trace(self.model, self.training, self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self.kernels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.model == other.model and self.training == other.training
                and self.kernels == other.kernels)

    def __repr__(self) -> str:
        return (f"Trace(model={self.model.name!r}, "
                f"training={self.training.label!r}, kernels={len(self)})")

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # Only the compact columnar form: the runner cache stores a handful
        # of arrays + pools instead of thousands of dataclass objects.
        return {"model": self.model, "training": self.training,
                "table": self._table}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["model"], state["training"], state["table"])

    # ------------------------------------------------------------- selection
    def select(self, *, phase: Phase | None = None,
               component: Component | None = None,
               region: Region | None = None,
               op_class: OpClass | None = None,
               layer_index: int | None = None,
               predicate: Callable[[Kernel], bool] | None = None
               ) -> list[Kernel]:
        """Kernels matching all the given filters."""
        table = self._table
        mask = table.mask(phase=phase, component=component, region=region,
                          op_class=op_class, layer_index=layer_index)
        kernels = table.kernels_at(mask.nonzero()[0])
        if predicate is not None:
            kernels = [k for k in kernels if predicate(k)]
        return kernels

    def gemms(self) -> list[Kernel]:
        """All (batched) GEMM kernels."""
        return self._table.kernels_at(self._table.is_gemm.nonzero()[0])

    def non_gemms(self) -> list[Kernel]:
        """All non-GEMM kernels."""
        return self._table.kernels_at((~self._table.is_gemm).nonzero()[0])

    # ------------------------------------------------------------ aggregates
    def _aggregates(self) -> tuple[int, int]:
        """(total flops, total bytes), computed once per view.

        Sweeps call these per operating point and per report row, so
        recomputing the sums on every access was quadratic over a session.
        """
        if self._totals is None:
            table = self._table
            self._totals = (_exact_sum(table.flops),
                            _exact_sum(table.bytes_read)
                            + _exact_sum(table.bytes_written))
        return self._totals

    @property
    def total_flops(self) -> int:
        return self._aggregates()[0]

    @property
    def total_bytes(self) -> int:
        return self._aggregates()[1]

    def kernel_count(self, **filters) -> int:
        """Number of kernels matching :meth:`select` filters."""
        if "predicate" in filters:
            return len(self.select(**filters))
        return int(self._table.mask(**filters).sum())

    def replaced(self, kernels: Iterable[Kernel]) -> "Trace":
        """A trace of the same operating point over a different sequence."""
        return Trace.from_table(self.model, self.training,
                                KernelTable.from_kernels(kernels))
