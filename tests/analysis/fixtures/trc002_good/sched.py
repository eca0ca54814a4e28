"""submit() mutates and traces (via a private helper — closure walk)."""


class MiniSched:
    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.jobs = []

    def submit(self, job) -> None:
        self.jobs.append(job)
        self._note(job)

    def _note(self, job) -> None:
        self.tracer.emit("job.submitted", jobid=job)


class MiniCore:
    """A base class owning the state; its helper mutates and traces."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.cordoned = []

    def _cordon(self, host) -> None:
        self.cordoned.append(host)
        self.tracer.emit("node.cordoned", node=host)


class MiniPersonality(MiniCore):
    def cordon(self, host) -> None:
        self._cordon(host)
