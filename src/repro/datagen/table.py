"""Relational table generation (the BDGS Table Generator).

Models the e-commerce transaction tables (Table 1, dataset 5: an ORDER
table of 4 columns and an ITEM table of 6 columns) and the ProfSearch
resumé table (dataset 6), which drive the relational-operator and HBase
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class Row:
    """A generic keyed record: the K-V text rows the paper describes."""

    key: int
    fields: tuple

    def size_bytes(self) -> int:
        """Approximate serialised size of the row."""
        return 8 + sum(
            len(f) if isinstance(f, str) else 8 for f in self.fields
        )


class TableGenerator:
    """Base class: deterministic rows keyed 0..n-1."""

    def __init__(self, seed: int = 17):
        self._rng = np.random.default_rng(seed)

    def rows(self, n: int) -> Iterator[Row]:
        raise NotImplementedError


class EcommerceTransactions(TableGenerator):
    """The two e-commerce tables.

    ORDER table (4 columns): order_id, buyer_id, create_date, total.
    ITEM table (6 columns): item_id, order_id, goods_id, goods_number,
    goods_price, goods_amount.  The seed has 38,658 orders and 242,735
    items (~6.3 items per order); record text is ~52 bytes as in Table 2.
    """

    SEED_ORDERS = 38_658
    SEED_ITEMS = 242_735

    def __init__(self, seed: int = 17):
        super().__init__(seed)

    def orders(self, n: int) -> Iterator[Row]:
        """``n`` ORDER rows."""
        buyers = max(10, n // 8)
        buyer_ids = self._rng.integers(0, buyers, size=n)
        days = self._rng.integers(0, 365, size=n)
        totals = np.round(self._rng.gamma(2.0, 40.0, size=n), 2)
        for i in range(n):
            yield Row(
                key=i,
                fields=(
                    int(buyer_ids[i]),
                    f"2015-{1 + int(days[i]) // 31:02d}-{1 + int(days[i]) % 28:02d}",
                    float(totals[i]),
                ),
            )

    def items(self, n_orders: int) -> Iterator[Row]:
        """ITEM rows for ``n_orders`` orders (~6.3 items per order)."""
        item_id = 0
        per_order = self._rng.poisson(
            self.SEED_ITEMS / self.SEED_ORDERS, size=n_orders
        )
        for order_id in range(n_orders):
            for _ in range(max(1, int(per_order[order_id]))):
                goods_id = int(self._rng.integers(0, 10_000))
                number = int(self._rng.integers(1, 5))
                price = round(float(self._rng.gamma(2.0, 15.0)), 2)
                yield Row(
                    key=item_id,
                    fields=(order_id, goods_id, number, price, round(number * price, 2)),
                )
                item_id += 1

    def rows(self, n: int) -> Iterator[Row]:
        return self.orders(n)


class ProfSearchResumes(TableGenerator):
    """The ProfSearch personal-resumé table (278,956 resumés in the seed).

    Rows are ~1128-byte K-V records (Table 2, H-Read): name, institution,
    field, degree, publication count and a free-text summary blob sized
    to match the seed record length.
    """

    SEED_RESUMES = 278_956
    RECORD_BYTES = 1128

    FIELDS = ("systems", "architecture", "databases", "ml", "networks", "theory")
    DEGREES = ("bs", "ms", "phd")

    def rows(self, n: int) -> Iterator[Row]:
        fields = self._rng.integers(0, len(self.FIELDS), size=n)
        degrees = self._rng.integers(0, len(self.DEGREES), size=n)
        pubs = self._rng.poisson(8.0, size=n)
        for i in range(n):
            summary_len = self.RECORD_BYTES - 64
            summary = "x" * summary_len  # ballast to match record size
            yield Row(
                key=i,
                fields=(
                    f"person-{i}",
                    f"inst-{int(self._rng.integers(0, 500))}",
                    self.FIELDS[int(fields[i])],
                    self.DEGREES[int(degrees[i])],
                    int(pubs[i]),
                    summary,
                ),
            )
