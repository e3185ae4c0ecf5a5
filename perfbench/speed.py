"""CPU-speed sampling, so that times can be given at a fixed reference speed.

The benchmark runs on a shared virtual machine whose CPU speed changes
within tens of milliseconds and can halve for seconds or minutes at a time
(NOTES.md, "Machine noise").  Wall time then measures the machine as much
as the program.  ``SpeedSampler`` runs a fixed probe loop (stdlib
``Fraction`` arithmetic, no repository code) in the measured process
itself: at explicit ``sample()`` calls, and from a ``SIGALRM`` timer every
``PERIOD_S`` seconds between ``start()`` and ``stop()``.  The speed at a
sample is ``REFERENCE_PROBE_S`` over the probe's duration, and ``ref_now()``
integrates speed over wall time: the seconds the work done so far would
take on a CPU that runs the probe in exactly ``REFERENCE_PROBE_S``.  The
probes' own time is left out of that integral.

The probe does what the program mostly does (big-integer ``Fraction``
arithmetic in the interpreter), so it slows with the machine in the same
way.  It runs between bytecodes of the main thread; a long C call only
delays the next sample.
"""

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
PROBE_ITERATIONS = 100
# about the probe's duration when the machine is in a fast phase, so that
# reference seconds read close to wall seconds there
REFERENCE_PROBE_S = 0.00035

_OPERANDS = [Fraction((1 << 61) - 1 - 7 * i, (1 << 59) + 3 * i + 1)
             for i in range(64)]


def probe():
    """Seconds of one fixed Fraction multiply-add loop; gc stays off in it,
    so a collection of the caller's heap is not charged to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    a = _OPERANDS
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        a[i & 63] * a[(i * 7) & 63] + a[(i * 13) & 63]
    t = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t


class SpeedSampler:
    def __init__(self):
        # (reference seconds up to `last`, perf_counter() at the end of the
        # last probe, speed that probe measured), replaced as one tuple so a
        # reader interrupted by the timer never mixes two samples
        self.state = None
        self.first_speed = None
        self.samples = 0
        self.probe_s = 0.0   # wall time spent in probes

    def sample(self, *_):
        t0 = time.perf_counter()
        speed = REFERENCE_PROBE_S / probe()
        ref_s = 0.0
        if self.state is None:
            self.first_speed = speed
        else:
            # the stretch since the last sample counts at that sample's
            # speed, as ref_now() counted it, so readings never go back
            ref_s, last, old = self.state
            ref_s += (t0 - last) * old
        end = time.perf_counter()
        self.state = (ref_s, end, speed)
        self.samples += 1
        self.probe_s += end - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def ref_now(self):
        """Reference seconds since the first sample; the stretch after the last
        sample counts at that sample's speed."""
        now = time.perf_counter()
        # a sample that lands between these two lines ends after `now`
        ref_s, last, speed = self.state
        return ref_s + max(now - last, 0.0) * speed
