"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every module attribute
where a caller looks it up (``braidgrpd`` calls ``braiding_op`` through its
own namespace, ``cli`` calls ``jfunc_eval`` and ``rmat`` through its own),
and a traced class by wrapping its ``__init__``.  A wrapper records
(name, start, end, parent) in memory and returns exactly what the wrapped
function returns; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> (module, attribute)
TRACED = {
    "qdilog.lambda_table": ("holorm.qdilog", "lambda_table"),
    "qdilog.li2": ("holorm.qdilog", "li2"),
    "characters.braid": ("holorm.characters", "braid"),
    "weylrep.rep_matrices": ("holorm.weylrep", "rep_matrices"),
    "weylrep.rw_images": ("holorm.weylrep", "rw_images"),
    "weylrep.rw_images_negative": ("holorm.weylrep", "rw_images_negative"),
    "rmatrix.CrossingData": ("holorm.rmatrix", "CrossingData"),
    "rmatrix.braiding_op": ("holorm.rmatrix", "braiding_op"),
    "rmatrix.rmat": ("holorm.rmatrix", "rmat"),
    "rmatrix.rmat_pinched": ("holorm.rmatrix", "rmat_pinched"),
    "rmatrix.kashaev_rmat": ("holorm.rmatrix", "kashaev_rmat"),
    "rmatrix.det_braiding": ("holorm.rmatrix", "det_braiding"),
    "rmatrix.det_lu": ("holorm.rmatrix", "det_lu"),
    "braidgrpd.extend_log_coloring": ("holorm.braidgrpd", "extend_log_coloring"),
    "braidgrpd.propagate_chi": ("holorm.braidgrpd", "propagate_chi"),
    "braidgrpd.jfunc_eval": ("holorm.braidgrpd", "jfunc_eval"),
    "selftest.check_qdilog": ("holorm.selftest", "check_qdilog"),
    "selftest.check_characters": ("holorm.selftest", "check_characters"),
    "selftest.check_weylrep": ("holorm.selftest", "check_weylrep"),
    "selftest.check_rmatrix": ("holorm.selftest", "check_rmatrix"),
    "selftest.check_braidgrpd": ("holorm.selftest", "check_braidgrpd"),
    "cli.main": ("holorm.cli", "main"),
}
# every public function of this module is traced under the one name "sampling"
SAMPLING_MODULE = "holorm.sampling"

# Metrics computed from spans: <span>.calls, <span>.s (inclusive time of
# the outermost span of that name) and <span>.self_s (minus direct children).
SPAN_METRICS = (
    "qdilog.lambda_table.calls", "qdilog.lambda_table.s",
    "qdilog.li2.calls", "qdilog.li2.s",
    "characters.braid.calls", "characters.braid.s",
    "weylrep.rep_matrices.calls", "weylrep.rep_matrices.s",
    "weylrep.rw_images.s", "weylrep.rw_images_negative.s",
    "rmatrix.CrossingData.calls", "rmatrix.CrossingData.s",
    "rmatrix.braiding_op.calls", "rmatrix.braiding_op.s",
    "rmatrix.rmat.s", "rmatrix.rmat_pinched.s", "rmatrix.kashaev_rmat.s",
    "rmatrix.det_braiding.s", "rmatrix.det_lu.s",
    "braidgrpd.extend_log_coloring.s", "braidgrpd.propagate_chi.s",
    "braidgrpd.jfunc_eval.calls", "braidgrpd.jfunc_eval.s",
    "braidgrpd.jfunc_eval.self_s",
    "selftest.check_qdilog.s", "selftest.check_characters.s",
    "selftest.check_weylrep.s", "selftest.check_rmatrix.s",
    "selftest.check_braidgrpd.s",
    "cli.main.s", "cli.main.self_s", "sampling.s",
)
# Metrics the runner measures itself.
RUN_METRICS = (
    ("cli.output_bytes", "bytes"),
    ("process.cpu_s", "s"),       # process CPU time per untraced round
    ("trace.overhead_s", "s"),    # traced minus untraced wall_s
)


def metric_unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []  # (owner, attribute, original), in install order

    # ----------------------------------------------------------- patching

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "holorm" or name.startswith("holorm."))]
        for span, (modname, attr) in TRACED.items():
            orig = getattr(sys.modules[modname], attr)
            if isinstance(orig, type):
                self._patch(orig, "__init__", self._wrap(span, orig.__init__))
            else:
                self._patch_everywhere(mods, orig, self._wrap(span, orig))
        sampling = sys.modules[SAMPLING_MODULE]
        for attr, fn in list(vars(sampling).items()):
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == SAMPLING_MODULE):
                self._patch_everywhere(mods, fn, self._wrap("sampling", fn))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, mods, orig, wrapper):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, attr, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced

    def take(self) -> list:
        """The spans recorded so far; recording continues into a new list."""
        spans, self.spans = self.spans, []
        return spans


def span_totals(spans: list) -> dict:
    """{name: [calls, inclusive s of outermost spans, self s of those]}."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        tot = out.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            tot[1] += t1 - t0
            tot[2] += t1 - t0 - child[i]
    return out


def span_metrics(spans: list, rounds: int) -> dict:
    """SPAN_METRICS over `spans`, divided by `rounds`."""
    tot = span_totals(spans)
    out = {}
    for metric in SPAN_METRICS:
        span, kind = metric.rsplit(".", 1)
        calls, incl, self_s = tot.get(span, (0, 0.0, 0.0))
        out[metric] = {"calls": calls, "s": incl, "self_s": self_s}[kind] / rounds
    return out


def write_spans(path: str, phases: dict):
    """One CSV line per span: phase, name, start, end, parent index."""
    with open(path, "w") as fh:
        fh.write("phase,name,start_s,end_s,parent\n")
        for phase, spans in phases.items():
            for name, t0, t1, parent in spans:
                fh.write(f"{phase},{name},{t0:.9f},{t1:.9f},{parent}\n")
