"""Nonblocking-operation request handles (MPI_Request analogues)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..simengine import Event

__all__ = ["Request"]


@dataclass(slots=True)
class Request:
    """Handle for an in-flight isend/irecv.

    ``completion`` is the event that fires when the operation finishes;
    ``overhead`` is CPU time charged to the caller at wait() time
    (receive-side copy cost, per the LogGP 'o_r' parameter).

    ``peer`` and ``tag`` record the operation's envelope (``None`` for
    wildcards) so diagnostics — chiefly the simulation sanitizer's
    leaked-request report — can say *which* operation was abandoned.
    ``comm.wait``/``comm.waitall`` mark the request as consumed via the
    private ``_waited`` flag.
    """

    kind: str  # "send" | "recv"
    completion: Event
    overhead: float = 0.0
    peer: Optional[int] = None
    tag: Optional[int] = None
    _result: Any = field(default=None, repr=False)
    _waited: bool = field(default=False, repr=False)

    @property
    def complete(self) -> bool:
        return self.completion.triggered

    def result(self) -> Any:
        """Value of the completed operation (Message for receives)."""
        if not self.completion.triggered:
            raise RuntimeError("request has not completed; yield comm.wait(req)")
        return self.completion.value
