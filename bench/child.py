"""One benchmark repetition in a fresh interpreter.

Protocol with `run.py`: the child imports `partition_ot.cli` and writes
``ready`` on stdout, so the parent can time interpreter set-up.  It then
reads one JSON job from stdin::

    {"ops": [argv, ...], "trace": bool, "keep_output": bool, "spans": path|null}

and runs ``cli.main(argv)`` once per op, in order, with stdout and stderr
captured in memory.  Each op is timed with `time.perf_counter` around the
call alone.  The child answers with one JSON line holding, per op, the
exit code (null if it raised), seconds, the CPU-speed probe reading over
the op, output sha256 and size (and the output itself when `keep_output`
is set); plus a probe reading taken right after start-up, the peak RSS
and, when tracing, the span summary.  With ``ops`` empty it only answers.
"""

import bisect
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02  # one probe loop every 20 ms of wall time
PROBE_LOOPS = 3000  # a few hundred microseconds of pure bytecode
PROBE_NEAREST = 5  # probe samples used for an op shorter than that
SETUP_PROBES = 20  # probe loops run back to back right after start-up


def probe_loop():
    """Seconds one fixed run of integer bytecode takes right now."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples how fast this CPU runs Python while ops execute.

    The host this benchmark was built on changes speed by up to 40% for
    seconds at a time, because other tenants share its cores.  A SIGALRM
    timer runs `probe_loop` every PROBE_INTERVAL_S on the same thread as
    the op, so each op can be paired with the machine speed it ran at.
    The loops cost under 1% of the op time.
    """

    def __init__(self):
        self.times = []  # perf_counter at each sample, increasing
        self.seconds = []  # probe_loop duration at each sample

    def _sample(self, signum, frame):
        self.times.append(time.perf_counter())
        self.seconds.append(probe_loop())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def over(self, start, end):
        """Mean probe seconds during [start, end], or near it for short ops."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < PROBE_NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - PROBE_NEAREST // 2, len(self.times) - PROBE_NEAREST))
            hi = min(len(self.times), lo + PROBE_NEAREST)
        window = self.seconds[lo:hi]
        if not window:
            raise RuntimeError("no speed probe samples")
        return sum(window) / len(window)


def main(cli):
    import contextlib
    import hashlib
    import io
    import json
    import traceback

    job = json.loads(sys.stdin.read())
    setup_probe = sum(probe_loop() for _ in range(SETUP_PROBES)) / SETUP_PROBES
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    probe = SpeedProbe()
    if job["ops"]:
        probe.start()
    intervals = []
    results = []
    for op, argv in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception:  # a crash fails this op, not the whole run
                traceback.print_exc()
                code = None
            end = time.perf_counter()
        intervals.append((start, end))
        data = out.getvalue().encode("utf-8")
        result = {
            "code": code,
            "seconds": end - start,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "last_line": data.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode("utf-8"),
            "stderr": err.getvalue()[-500:],
        }
        if job["keep_output"]:
            result["output"] = data.decode("utf-8")
        results.append(result)
    if job["ops"]:
        time.sleep(PROBE_INTERVAL_S * (PROBE_NEAREST + 1))  # samples after the last op
        probe.stop()
    for result, (start, end) in zip(results, intervals):
        result["probe_s"] = probe.over(start, end)
    answer = {"ops": results, "setup_probe_s": setup_probe, "rss_kib": peak_rss_kib()}
    if tracer is not None:
        tracer.uninstall()
        answer["trace"] = tracer.summarize()
        if job["spans"]:
            tracer.write(job["spans"])
    sys.stdout.write(json.dumps(answer) + "\n")


def peak_rss_kib():
    """High-water RSS of this process image, from /proc/self/status.

    getrusage's ru_maxrss is not used: it survives exec, so a child
    would report its parent's peak when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    from partition_ot import cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    main(cli)
