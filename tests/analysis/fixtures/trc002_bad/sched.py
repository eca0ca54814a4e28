"""submit() mutates the queue silently — invisible to the trace oracle."""


class MiniSched:
    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.jobs = []

    def submit(self, job) -> None:
        self.jobs.append(job)


class MiniCore:
    """A base class owning the state; its helper mutates silently."""

    def __init__(self) -> None:
        self.cordoned = []

    def _cordon(self, host) -> None:
        self.cordoned.append(host)


class MiniPersonality(MiniCore):
    def cordon(self, host) -> None:
        # mutates only through the inherited helper: still this object
        self._cordon(host)
