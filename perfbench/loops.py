"""Measurement loops: a closed loop with one caller, and an open loop.

Both return a :class:`Measurement` whose operations are split by mode:
``plain`` (tracing off) and ``traced`` (probe installed).  An untraced
run fills only ``plain``.  The closed loop also has a fixed slice of
work timed between operations (:class:`HostSpeed`), so that its timings
can be scaled to a host of fixed speed.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

from repro.exceptions import AdmissionError, ServiceError

#: How long one slice takes on the reference host.
REFERENCE_SLICE_SECONDS = 0.02
HELPER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "speed.py")


class HostSpeed:
    """The speed of this host, from a fixed slice of work timed repeatedly.

    The machines this runs on are shared: the same operation takes up to
    1.5x longer from one minute to the next, in CPU time as in wall time.
    A fixed slice of work of the kinds the program does slows down by the
    same factor, so timings multiplied by :func:`factor` of the slices
    timed around them stay steady.  The slice runs in a helper process
    (speed.py) that this process waits for, so it sees the host's drift
    but none of the program's state.  The helper runs on the CPU this
    process last ran on: the CPUs of a shared host drift apart, and a
    slice on the other CPU tracked the program's times no better than no
    slice at all.  Call :meth:`close` when done.
    """

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, HELPER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self._helper.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the host speed helper did not start")
        self._last = time.perf_counter()
        self._cpu = None

    def _follow(self) -> None:
        """Move the helper to the CPU this process last ran on."""
        with open("/proc/self/stat") as handle:
            # Field 39, counting the command's closing parenthesis as
            # the end of field 2.
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        if cpu != self._cpu:
            os.sched_setaffinity(self._helper.pid, {cpu})
            self._cpu = cpu

    def measure(self) -> tuple[float, float]:
        """Time one slice: (its seconds, seconds this process waited)."""
        started = time.perf_counter()
        self._follow()
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        seconds = float(self._helper.stdout.readline())
        self._last = time.perf_counter()
        return seconds, self._last - started

    def due(self, every: float = 0.2) -> bool:
        """Whether ``every`` seconds passed since the last slice."""
        return time.perf_counter() - self._last >= every

    def close(self) -> None:
        """Stop the helper and wait for it to end."""
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


def factor(slices: list[float]) -> float:
    """Multiply a duration measured while ``slices`` were timed by this to
    get reference seconds (below 1 when the host runs slow; 1 without
    slices)."""
    if not slices:
        return 1.0
    return REFERENCE_SLICE_SECONDS / statistics.median(slices)


def cpu_seconds() -> float:
    """User and system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def nearest_rank(values: list[float], share: float) -> float:
    """The nearest-rank percentile ``share`` (0 < share <= 1) of values."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


class Tally:
    """The operations measured in one mode."""

    def __init__(self):
        self.latencies: list[float] = []
        self.work = 0.0
        self.failed = 0
        self.cpu = 0.0

    def add(self, seconds: float, work: float, ok: bool) -> None:
        self.latencies.append(seconds)
        self.work += work
        self.failed += 0 if ok else 1


class Measurement:
    """Tallies per mode, and the window they were measured in."""

    def __init__(self):
        self.plain = Tally()
        self.traced = Tally()
        #: Measured seconds and CPU seconds, not counting speed slices.
        self.window = 0.0
        self.cpu = 0.0
        #: Host speed slices timed during the window (closed loop).
        self.slices: list[float] = []
        #: Per-layer metrics only the loop can see (open loop).
        self.layers: dict[str, float] = {}

    @property
    def factor(self) -> float:
        return factor(self.slices)

    def tally(self, traced: bool) -> Tally:
        return self.traced if traced else self.plain

    @property
    def attempted(self) -> int:
        return len(self.plain.latencies) + len(self.traced.latencies)

    @property
    def failed(self) -> int:
        return self.plain.failed + self.traced.failed


def _run(operation, pass_index: int) -> tuple[float, bool]:
    """One operation; an exception counts as a failed operation."""
    try:
        return operation(pass_index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 0.0, False


def closed_loop(operations, passes: int, speed: HostSpeed,
                probe=None) -> Measurement:
    """Run ``passes`` whole passes over ``operations``.

    Whole passes keep the mix of operations the same in every run, so the
    median cannot shift because one run stopped part way through a pass,
    and a fixed number of them gives every run the same sample count
    however fast the host is.  With a probe, every second pass is traced.
    Speed slices run between operations; the window leaves out the time
    spent waiting for them.
    """
    measurement = Measurement()
    paused = 0.0
    cpu_start = cpu_seconds()
    started = time.perf_counter()
    for pass_index in range(passes):
        traced = probe is not None and pass_index % 2 == 1
        tally = measurement.tally(traced)
        if traced:
            probe.start()
        try:
            for operation in operations:
                cpu_before = cpu_seconds()
                op_started = time.perf_counter()
                work, ok = _run(operation, pass_index)
                tally.add(time.perf_counter() - op_started, work, ok)
                tally.cpu += cpu_seconds() - cpu_before
                if speed.due():
                    seconds, waited = speed.measure()
                    measurement.slices.append(seconds)
                    paused += waited
        finally:
            if traced:
                probe.stop()
    measurement.window = time.perf_counter() - started - paused
    measurement.cpu = cpu_seconds() - cpu_start
    return measurement


class OpenLoop:
    """Sends requests to the service on a fixed schedule and polls results.

    One thread submits each request at its due time and the other polls
    the results of submitted ones, so at most two connections are open.
    Latency runs from the due time, so a late send counts against it.  A
    refused (429) or failed request counts as failed, with the time from
    its due time to the end of the run as its latency.

    Args:
        client: A :class:`~repro.service.client.ServiceClient`.
        requests: Spec documents, in send order.
        interval: Seconds between due times.
        poll_seconds: Pause between polling rounds.
        check: ``check(index, results_doc) -> bool``.
        backlog: Returns the service's queued plus running job count.
        timeout: How long after the last due time to wait for results.
    """

    def __init__(self, client, requests, interval, poll_seconds, check,
                 backlog, timeout):
        self.client = client
        self.requests = requests
        self.interval = interval
        self.poll_seconds = poll_seconds
        self.check = check
        self.backlog = backlog
        self.timeout = timeout

    def run(self, probe=None) -> Measurement:
        """Send every request; with a probe, trace the second half.

        No speed slices run: at a fixed offered load the round trip is
        mostly waiting, and slices timed before and after the schedule
        tracked it worse than raw seconds do.
        """
        measurement = Measurement()
        count = len(self.requests)
        half = count // 2 if probe is not None else count
        first_due = time.perf_counter() + self.interval
        due = [first_due + i * self.interval for i in range(count)]
        give_up = due[-1] + self.timeout
        finished: list = [None] * count  # (finish time or None, ok)
        pending: dict[int, str] = {}
        late: list[float] = []
        lock = threading.Lock()
        sent = threading.Event()
        marks = {"start": cpu_seconds()}
        shed = 0

        def send() -> None:
            nonlocal shed
            try:
                for index, doc in enumerate(self.requests):
                    if index == half:
                        marks["half"] = cpu_seconds()
                        probe.start()
                    delay = due[index] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    late.append(time.perf_counter() - due[index])
                    try:
                        analysis_id = self.client.submit(doc)["id"]
                    except AdmissionError:
                        shed += 1
                        finished[index] = (None, False)
                        continue
                    except ServiceError:
                        finished[index] = (None, False)
                        continue
                    with lock:
                        pending[index] = analysis_id
                marks["backlog_end"] = self.backlog()
            finally:
                sent.set()

        def poll() -> None:
            while time.perf_counter() < give_up:
                with lock:
                    waiting = sorted(pending.items())
                if not waiting and sent.is_set():
                    return
                for index, analysis_id in waiting:
                    try:
                        doc = self.client.result(analysis_id)
                    except ServiceError:
                        finished[index] = (None, False)
                    else:
                        if doc is None:
                            continue
                        finished[index] = (time.perf_counter(),
                                           self.check(index, doc))
                    with lock:
                        del pending[index]
                time.sleep(self.poll_seconds)

        threads = [threading.Thread(target=send, name="perfbench-send"),
                   threading.Thread(target=poll, name="perfbench-poll")]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, give_up - time.perf_counter())
                            + 30.0)
        finally:
            if "half" in marks:
                probe.stop()
        end = time.perf_counter()
        cpu_end = cpu_seconds()

        for index in range(count):
            finish, ok = finished[index] or (None, False)
            latency = (finish if finish is not None else end) - due[index]
            measurement.tally(index >= half).add(latency, 1 if ok else 0, ok)
        split = marks.get("half", cpu_end)
        measurement.plain.cpu = split - marks["start"]
        measurement.traced.cpu = cpu_end - split
        measurement.window = end - due[0]
        measurement.cpu = cpu_end - marks["start"]
        measurement.layers = {
            "loadgen.late_p99_s": nearest_rank(late, 0.99) if late else 0.0,
            "service.shed": shed,
            "service.backlog_end": marks.get("backlog_end", 0),
        }
        return measurement
