"""ASCII rendering of a simulated kernel timeline.

Turns the :class:`~repro.gpu.timeline.KernelRecord` list of a run into a
Gantt chart -- one line per kernel, bars positioned on a shared time axis,
grouped by stream.  Makes the paper's stream-concurrency story visible at
a glance::

    symbolic_tb_g3      s4 |      ====                      |
    symbolic_tb_g4      s5 |       =======                  |
    symbolic_pwarp_g6   s7 |       ===                      |

(the three group kernels overlap on their streams).
"""

from __future__ import annotations

from repro.gpu.timeline import KernelRecord

#: Width of the bar area in characters.
DEFAULT_WIDTH = 60

#: Smallest usable bar area; narrower requests are clamped up to this, so
#: a terminal narrower than the name column cannot produce negative bar
#: widths (which used to garble or crash the rendering).
MIN_WIDTH = 8


def render_timeline(kernels: list[KernelRecord], *,
                    width: int = DEFAULT_WIDTH) -> str:
    """Render kernel records as an ASCII Gantt chart.

    The time axis spans the earliest start to the latest end; every
    kernel gets one row with its stream id and duration.  Rows are sorted
    by (device, stream, start time), so kernels sharing a name on
    different streams stay attached to their own stream's bar instead of
    appearing in scheduler-record order, where the label next to a bar
    could belong to the same-named kernel of another stream.  Records
    carrying a pool device id (multi-device runs) get that id prefixed to
    the label, so concurrent per-device timelines stay readable.
    """
    if not kernels:
        return "(no kernels)"
    width = max(int(width), MIN_WIDTH)
    t0 = min(k.start for k in kernels)
    t1 = max(k.end for k in kernels)
    span = max(t1 - t0, 1e-12)

    def label(k: KernelRecord) -> str:
        return f"{k.device}:{k.name}" if k.device else k.name

    name_w = max(len(label(k)) for k in kernels)

    lines = []
    for k in sorted(kernels, key=lambda k: (k.device, k.stream, k.start,
                                            k.name)):
        lo = min(int((k.start - t0) / span * width), width - 1)
        hi = max(lo + 1, int((k.end - t0) / span * width))
        hi = min(hi, width)
        bar = " " * lo + "=" * (hi - lo) + " " * (width - hi)
        lines.append(f"{label(k):<{name_w}} s{k.stream:<2}|{bar}| "
                     f"{k.duration * 1e6:8.1f} us")
    lines.append(f"{'':{name_w}}    |{'-' * width}| "
                 f"total {span * 1e6:.1f} us")
    return "\n".join(lines)

