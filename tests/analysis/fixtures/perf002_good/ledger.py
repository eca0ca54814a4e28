"""The epoch state lives in a base class; every writer bumps."""


class Table:
    def __init__(self) -> None:
        self.mutation_epoch = 0
        self.rows = []

    def insert(self, row) -> None:
        self.rows.append(row)
        self.mutation_epoch += 1

    def wipe(self) -> None:
        self.rows = []
        self.mutation_epoch += 1

    def all_rows(self) -> list:
        return list(self.rows)


class Ledger(Table):
    """Adds nothing but a name: every row write is inherited."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "ledger"
