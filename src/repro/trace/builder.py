"""Trace container and builder.

A :class:`Trace` is the ordered kernel sequence of one training iteration —
the software-side analogue of the rocProf kernel trace the paper collects
(Sec. 3.1.4).  It knows nothing about time; devices assign that later.

Since the columnar engine landed, a trace has two interchangeable
representations:

* a :class:`~repro.trace.kernel_table.KernelTable` — parallel NumPy columns,
  produced by the layer-templated generators and consumed by the vectorized
  timing/aggregation paths and the runner cache;
* a ``list[Kernel]`` — the original object view, materialized lazily the
  first time ``trace.kernels`` is touched, for callers that still want
  per-kernel objects (tests, reference oracles, ad-hoc inspection).

The list, once materialized, is the mutable, authoritative side; the table
is rebuilt whenever the list no longer mirrors the snapshot it was last
built from — element identity, not just length, so in-place replacement of
a kernel (same count, different object) invalidates it too.  Tables are
immutable, so handing the same table to several ``Trace`` views is safe.

Transform passes (:mod:`repro.trace.passes`) never materialize the list:
they rewrite ``trace.table`` directly and wrap the result in a new
table-backed ``Trace`` view.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator

from repro.config import BertConfig, TrainingConfig
from repro.obs import spans
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
        kernels: the kernel sequence, in launch order (lazily materialized
            when the trace is table-backed).
        table: the columnar form (lazily built when the trace is
            list-backed).
    """

    def __init__(self, model: BertConfig, training: TrainingConfig,
                 kernels: list[Kernel] | None = None, *,
                 table: KernelTable | None = None):
        self.model = model
        self.training = training
        if kernels is None and table is None:
            kernels = []
        self._kernels: list[Kernel] | None = (
            list(kernels) if kernels is not None else None)
        self._table = table
        # Snapshot of the kernel list the current table was built from
        # (or materialized into); any divergence — append, removal, or
        # same-length element replacement — marks the table stale.
        self._table_src: list[Kernel] | None = None
        # (source table, flops, bytes) backing the cached aggregates;
        # keyed on table identity so any rebuild invalidates it.
        self._agg_cache: tuple[KernelTable, int, int] | None = None

    @classmethod
    def from_table(cls, model: BertConfig, training: TrainingConfig,
                   table: KernelTable) -> "Trace":
        """A trace view over an existing (immutable) columnar table."""
        return cls(model, training, kernels=None, table=table)

    # -------------------------------------------------------- representations
    @property
    def kernels(self) -> list[Kernel]:
        """The kernel list, materialized from the table on first access."""
        if self._kernels is None:
            self._kernels = self._table.to_kernels()
            self._table_src = list(self._kernels)
        return self._kernels

    def _list_matches_table(self) -> bool:
        """Whether the materialized list still mirrors the table.

        Compared element-by-element against the snapshot by identity, so
        in-place replacement of a kernel (length unchanged) is caught, not
        just appends.  Kernels are frozen dataclasses, so identity is the
        right notion of "same row".
        """
        if self._kernels is None:
            return True  # table-backed, never materialized: authoritative
        source = self._table_src
        return (source is not None and len(self._kernels) == len(source)
                and all(map(operator.is_, self._kernels, source)))

    @property
    def table(self) -> KernelTable:
        """The columnar form, rebuilt whenever the kernel list diverged."""
        if self._table is None or not self._list_matches_table():
            with spans.span("trace.columnarize",
                            kernels=len(self._kernels)):
                self._table = KernelTable.from_kernels(self._kernels)
            self._table_src = list(self._kernels)
        return self._table

    def _columnar(self) -> KernelTable | None:
        """The table, only while it is authoritative (list untouched)."""
        return self._table if self._kernels is None else None

    def fork(self) -> "Trace":
        """An independent view for another caller.

        Table-backed traces share the immutable table (cheap); list-backed
        traces copy the container (kernels themselves are frozen).
        """
        if self._kernels is None:
            return Trace.from_table(self.model, self.training, self._table)
        return Trace(model=self.model, training=self.training,
                     kernels=self._kernels)

    def __len__(self) -> int:
        if self._kernels is None:
            return len(self._table)
        return len(self._kernels)

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
        # Always serialize the compact columnar form: the runner cache then
        # stores a handful of arrays + pools instead of thousands of
        # dataclass objects, and loads stay lazy.
        return {"model": self.model, "training": self.training,
                "table": self.table}

    def __setstate__(self, state: dict) -> None:
        self.model = state["model"]
        self.training = state["training"]
        self._kernels = None
        self._table = state["table"]
        self._table_src = None
        self._agg_cache = None

    # ------------------------------------------------------------- selection
    def select(self, *, phase: Phase | None = None,
               component: Component | None = None,
               region: Region | None = None,
               op_class: OpClass | None = None,
               layer_index: int | None = None,
               predicate: Callable[[Kernel], bool] | None = None
               ) -> list[Kernel]:
        """Kernels matching all the given filters."""
        table = self._columnar()
        if table is not None:
            mask = table.mask(phase=phase, component=component, region=region,
                              op_class=op_class, layer_index=layer_index)
            rows = mask.nonzero()[0]
            kernels = table.kernels_at(rows)
            if predicate is not None:
                kernels = [k for k in kernels if predicate(k)]
            return kernels
        out = []
        for kernel in self.kernels:
            if phase is not None and kernel.phase is not phase:
                continue
            if component is not None and kernel.component is not component:
                continue
            if region is not None and kernel.region is not region:
                continue
            if op_class is not None and kernel.op_class is not op_class:
                continue
            if layer_index is not None and kernel.layer_index != layer_index:
                continue
            if predicate is not None and not predicate(kernel):
                continue
            out.append(kernel)
        return out

    def gemms(self) -> list[Kernel]:
        """All (batched) GEMM kernels."""
        table = self._columnar()
        if table is not None:
            return table.kernels_at(table.is_gemm.nonzero()[0])
        return [k for k in self.kernels if k.op_class.is_gemm]

    def non_gemms(self) -> list[Kernel]:
        """All non-GEMM kernels."""
        table = self._columnar()
        if table is not None:
            return table.kernels_at((~table.is_gemm).nonzero()[0])
        return [k for k in self.kernels if not k.op_class.is_gemm]

    # ------------------------------------------------------------ aggregates
    def _aggregates(self) -> tuple[int, int]:
        """(total flops, total bytes), cached per source table.

        Sweeps call these per operating point and per report row, so
        recomputing the sums on every access was quadratic over a session.
        Keying on the table object (rebuilt by the ``table`` property
        whenever the kernel list diverges — including same-length in-place
        replacement) makes the cache stale-proof.
        """
        table = self.table
        if self._agg_cache is None or self._agg_cache[0] is not table:
            self._agg_cache = (table, _exact_sum(table.flops),
                               _exact_sum(table.bytes_read)
                               + _exact_sum(table.bytes_written))
        return self._agg_cache[1], self._agg_cache[2]

    @property
    def total_flops(self) -> int:
        return self._aggregates()[0]

    @property
    def total_bytes(self) -> int:
        return self._aggregates()[1]

    def kernel_count(self, **filters) -> int:
        """Number of kernels matching :meth:`select` filters."""
        table = self._columnar()
        if table is not None and "predicate" not in filters:
            return int(table.mask(**filters).sum())
        return len(self.select(**filters))

    def replaced(self, kernels: list[Kernel]) -> "Trace":
        """A copy of this trace with a different kernel sequence."""
        return Trace(model=self.model, training=self.training,
                     kernels=list(kernels))


class TraceBuilder:
    """Incremental trace construction with layer attribution.

    Sub-layer emitters append kernels through :meth:`add`; the builder stamps
    the current layer index so breakdowns can attribute kernels without the
    emitters threading it everywhere.
    """

    def __init__(self, model: BertConfig, training: TrainingConfig):
        self._trace = Trace(model=model, training=training)
        self._layer_index: int | None = None

    @property
    def model(self) -> BertConfig:
        return self._trace.model

    @property
    def training(self) -> TrainingConfig:
        return self._trace.training

    def set_layer(self, layer_index: int | None) -> None:
        """Set the encoder-layer attribution for subsequently added kernels."""
        self._layer_index = layer_index

    def add(self, kernels: Kernel | Iterable[Kernel]) -> None:
        """Append kernel(s), stamping the current layer index."""
        if isinstance(kernels, Kernel):
            kernels = [kernels]
        for kernel in kernels:
            if self._layer_index is not None and kernel.layer_index is None:
                kernel = kernel.with_layer(self._layer_index)
            self._trace.kernels.append(kernel)

    def build(self) -> Trace:
        """Finish and return the trace."""
        with spans.span("trace.builder.build", model=self.model.name,
                        kernels=len(self._trace)):
            return self._trace
