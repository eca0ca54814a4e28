"""Caches a total keyed on Ledger.mutation_epoch; the rows are read
through a Table method, the writer is a Table method."""

from perf002_bad.ledger import Ledger


class Summary:
    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._cache = None

    def total(self) -> int:
        epoch = self.ledger.mutation_epoch
        if self._cache is not None and self._cache[0] == epoch:
            return self._cache[1]
        value = sum(self.ledger.all_rows())
        self._cache = (epoch, value)
        return value
