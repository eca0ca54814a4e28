"""A base-class cache loop: each subclass supplies the epoch and the scan."""

from perf002_bad.store import Store


class CachedReport:
    def __init__(self) -> None:
        self._cache = None

    def _epoch(self) -> int:
        raise NotImplementedError

    def _scan(self) -> str:
        raise NotImplementedError

    def report(self) -> str:
        epoch = self._epoch()
        if self._cache is not None and self._cache[0] == epoch:
            return self._cache[1]
        text = self._scan()
        self._cache = (epoch, text)
        return text


class StoreReport(CachedReport):
    def __init__(self, store: Store) -> None:
        super().__init__()
        self.store = store

    def _epoch(self) -> int:
        return self.store.mutation_epoch

    def _scan(self) -> str:
        return ";".join(str(item) for item in self.store.items)
