"""The epoch state lives in a base class; wipe() forgets the bump."""


class Table:
    def __init__(self) -> None:
        self.mutation_epoch = 0
        self.rows = []

    def insert(self, row) -> None:
        self.rows.append(row)
        self.mutation_epoch += 1

    def wipe(self) -> None:
        # forgets the bump: Summary's cache keeps serving the old total
        self.rows = []

    def all_rows(self) -> list:
        return list(self.rows)


class Ledger(Table):
    """Adds nothing but a name: every row write is inherited."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "ledger"
