"""Supervised execution: worker threads with failure budgets and revival.

Request execution happens on a pool of worker threads, each a *slot*
with a failure budget
(:data:`~repro.runtime.resilience.DEFAULT_WORKER_FAILURE_BUDGET`).  A
supervisor thread heartbeat-scans the slots; incidents charge the slot's
budget:

- an injected ``worker_exec`` fault — the request is pushed onto a
  retry lane and re-executed by a (conceptually revived) slot; the
  response records the revival in ``retries``, and the chaos soak
  classifies it *healed* when the answer still matches the baseline;
- an untyped exception escaping the handler — answered in-protocol as
  ``InternalError`` (the daemon never drops a connection over a bug);
- a hang — a slot busy past its deadline-plus-grace is *abandoned*:
  its ticket is resolved with a typed execute-phase
  :class:`~repro.errors.DeadlineExceeded`, a replacement thread takes
  over the slot, and the stuck thread's eventual result is discarded
  (tickets resolve first-wins).

A slot that spends its whole budget is revived (budget reset, incident
logged) rather than collapsing the service — there is no lower rung
to fall back onto; the daemon's floor is
"answer typed errors and keep serving".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeadlineExceeded, InjectedFault, ReproError
from repro.runtime.resilience import DEFAULT_WORKER_FAILURE_BUDGET
from repro.service.protocol import Request, Response, error_response

#: Extra wall-clock a busy slot gets past its request deadline before the
#: supervisor declares it hung (covers non-cooperative sections like IR
#: construction that the solve budget cannot interrupt).
HANG_GRACE_S = 2.0

#: How many times an admitted request is retried across revived slots
#: before it gets a typed failure instead.
EXEC_RETRIES = 2


class Ticket:
    """One admitted request awaiting its response.

    ``resolve`` is first-wins: the supervisor may answer for an abandoned
    slot, and the stuck thread's late result must then be discarded.
    """

    def __init__(self, request: Request):
        self.request = request
        self.retries = 0
        self.created_at = time.monotonic()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self.response: Optional[Response] = None

    def resolve(self, response: Response) -> bool:
        with self._lock:
            if self.response is not None:
                return False
            response.retries = max(response.retries, self.retries)
            self.response = response
            self._done.set()
            return True

    def wait(self, timeout: Optional[float] = None) -> Optional[Response]:
        self._done.wait(timeout)
        return self.response

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left on the request deadline (None = no deadline)."""
        if self.request.deadline_s is None:
            return None
        now = time.monotonic() if now is None else now
        return self.request.deadline_s - (now - self.created_at)


class _Slot:
    """One supervised worker slot (thread + failure budget)."""

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.failures = 0
        self.revived = 0
        self.thread: Optional[threading.Thread] = None
        self.busy_since: Optional[float] = None
        self.ticket: Optional[Ticket] = None
        self.hang_budget_s: Optional[float] = None


class WorkerPool:
    """Pulls tickets from an admission queue and answers them, supervised."""

    def __init__(self, queue: Any, handler: Callable[[Ticket], Response],
                 size: int = 2,
                 failure_budget: int = DEFAULT_WORKER_FAILURE_BUDGET,
                 hang_grace_s: float = HANG_GRACE_S,
                 default_hang_s: float = 60.0,
                 faults: Any = None,
                 on_incident: Optional[Callable[[str, int], None]] = None):
        self.queue = queue
        self.handler = handler
        self.size = max(1, size)
        self.failure_budget = max(1, failure_budget)
        self.hang_grace_s = hang_grace_s
        #: Hang allowance for requests with no deadline of their own.
        self.default_hang_s = default_hang_s
        self.faults = faults
        self.on_incident = on_incident
        self._slots: List[_Slot] = [_Slot(i) for i in range(self.size)]
        self._retry: deque = deque()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        # ---- counters ----
        self.executed = 0
        self.exec_faults = 0
        self.crashes = 0
        self.hangs = 0
        self.revivals = 0

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "WorkerPool":
        for slot in self._slots:
            self._spawn(slot)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-svc-supervisor", daemon=True)
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop pulling new work and join idle workers (in-flight work is
        awaited up to *timeout*; a stuck thread is abandoned as daemonic)."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        for slot in list(self._slots):
            thread = slot.thread
            if thread is not None and thread.is_alive():
                thread.join(max(0.0, deadline - time.monotonic()))
        if self._supervisor is not None:
            self._supervisor.join(max(0.0, deadline - time.monotonic()))

    def idle(self) -> bool:
        with self._lock:
            return not self._retry and all(
                slot.ticket is None for slot in self._slots)

    # ------------------------------------------------------------- internals

    def _spawn(self, slot: _Slot) -> None:
        slot.generation += 1
        slot.busy_since = None
        slot.ticket = None
        thread = threading.Thread(
            target=self._run, args=(slot, slot.generation),
            name=f"repro-svc-worker-{slot.index}", daemon=True)
        slot.thread = thread
        thread.start()

    def _charge(self, slot: _Slot, incident: str) -> None:
        """One incident against *slot*'s failure budget; revive on spend."""
        with self._lock:
            slot.failures += 1
            if self.on_incident is not None:
                self.on_incident(incident, slot.index)
            if slot.failures >= self.failure_budget:
                slot.failures = 0
                slot.revived += 1
                self.revivals += 1

    def _next_ticket(self) -> Optional[Ticket]:
        with self._lock:
            if self._retry:
                return self._retry.popleft()
        return self.queue.get(timeout=0.1)

    def _run(self, slot: _Slot, generation: int) -> None:
        while not self._stop.is_set():
            ticket = self._next_ticket()
            if ticket is None:
                if self.queue.draining:
                    return
                continue
            with self._lock:
                if slot.generation != generation:
                    # This thread was abandoned while blocked; hand the
                    # ticket to the live pool and exit.
                    self._retry.append(ticket)
                    return
                slot.ticket = ticket
                slot.busy_since = time.monotonic()
                remaining = ticket.remaining(slot.busy_since)
                allowance = (self.default_hang_s if remaining is None
                             else max(remaining, 0.0))
                slot.hang_budget_s = allowance + self.hang_grace_s
            response = self._execute(slot, ticket)
            with self._lock:
                abandoned = slot.generation != generation
                if not abandoned:
                    slot.ticket = None
                    slot.busy_since = None
            if response is not None:
                ticket.resolve(response)  # first-wins; no-op if supervised out
            if slot.generation != generation:
                return

    def _execute(self, slot: _Slot, ticket: Ticket) -> Optional[Response]:
        request = ticket.request
        start = time.monotonic()
        if self.faults is not None:
            try:
                self.faults.fire("worker_exec", stage="service")
            except InjectedFault as err:
                self.exec_faults += 1
                self._charge(slot, "exec-fault")
                if ticket.retries < EXEC_RETRIES:
                    # Retry on a revived slot: the fault plan's `once`
                    # semantics (or a different seed draw) give the retry
                    # a clean run — the request heals instead of failing.
                    ticket.retries += 1
                    with self._lock:
                        self._retry.append(ticket)
                    return None
                return error_response(request.id, request.op, err,
                                      elapsed_s=time.monotonic() - start)
        try:
            response = self.handler(ticket)
        except ReproError as err:
            response = error_response(request.id, request.op, err,
                                      elapsed_s=time.monotonic() - start)
        except BaseException as err:  # noqa: BLE001 — daemon must not die
            self.crashes += 1
            self._charge(slot, "exec-crash")
            response = error_response(request.id, request.op, err,
                                      elapsed_s=time.monotonic() - start)
        self.executed += 1
        return response

    def _supervise(self) -> None:
        while not self._stop.is_set():
            time.sleep(0.05)
            now = time.monotonic()
            for slot in self._slots:
                with self._lock:
                    ticket = slot.ticket
                    busy_since = slot.busy_since
                    budget = slot.hang_budget_s
                    if (ticket is None or busy_since is None
                            or budget is None
                            or now - busy_since <= budget):
                        continue
                    # Hung: abandon the thread, answer the ticket typed,
                    # and bring a replacement up on the same slot.
                    self.hangs += 1
                    slot.ticket = None
                    slot.busy_since = None
                request = ticket.request
                deadline = request.deadline_s or self.default_hang_s
                ticket.resolve(error_response(
                    request.id, request.op,
                    DeadlineExceeded(
                        f"worker {slot.index} hung past its allowance "
                        f"({budget:.1f}s); slot revived",
                        deadline_s=deadline, phase="execute"),
                    elapsed_s=now - busy_since))
                self._charge(slot, "hung")
                self._spawn(slot)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers": self.size,
                "executed": self.executed,
                "exec_faults": self.exec_faults,
                "crashes": self.crashes,
                "hangs": self.hangs,
                "revivals": self.revivals,
                "retry_lane": len(self._retry),
            }
