"""Spans and counters recorded around calls into homgenus, and the per-layer
metrics derived from them.

A span is named `<layer>.<call>` after the homgenus module that does the
work.  Spans of one op share the op id; the op itself is a `bench.op` span,
so harness and oracle time shows as `bench` self time.  Where a call is one
of the pipeline stages of the ROADMAP, the span also carries that stage
name.  Spans stay in memory until the pass ends.
"""

from contextlib import contextmanager
from time import perf_counter

LAYERS = ("rootdata", "structures", "toricgenus", "exactalg", "cobordism", "hirzebruch")

STAGES = {
    "rootdata.weyl": "root data",
    "rootdata.cosets": "root data",
    "structures.summands": "root data",
    "structures.images": "fixed points",
    "structures.fixed_points": "fixed points",
    "toricgenus.numerator": "localization numerator",
    "exactalg.divide": "exact division and class extraction",
    "toricgenus.extract": "exact division and class extraction",
    "cobordism.fgl": "alphabet dictionaries",
    "cobordism.dict": "alphabet dictionaries",
}

# every span name; each gives the per-layer metric `<name>_s`, its self time
SPANS = (
    "rootdata.weyl",
    "rootdata.cosets",
    "structures.make_space",
    "structures.summands",
    "structures.images",
    "structures.fixed_points",
    "structures.enumerate",
    "toricgenus.numerator",
    "toricgenus.extract",
    "toricgenus.s_number",
    "toricgenus.schur",
    "toricgenus.twisted",
    "toricgenus.obstruction",
    "exactalg.divide",
    "exactalg.subs",
    "cobordism.fgl",
    "cobordism.dict",
    "cobordism.specialize",
    "hirzebruch.chi_y",
    "hirzebruch.rigidity",
)

COUNTS = (
    "rootdata.weyl_elements",
    "rootdata.cosets",
    "structures.fixed_points",
    "structures.structures",
    "toricgenus.numerator_terms",
    "toricgenus.numerator_terms_max",
    "toricgenus.lines",
    "toricgenus.s_number_calls",
    "exactalg.divide_calls",
    "exactalg.subs_calls",
    "exactalg.subs_terms_out",
    "cobordism.fgl_builds",
    "cobordism.dict_calls",
    "cobordism.dict_terms",
    "hirzebruch.chi_y_calls",
)

# ratio -> (numerator counter, denominator counter)
RATIOS = {
    "rootdata.coset_yield": ("rootdata.cosets", "rootdata.group_elements"),
    "toricgenus.term_yield": ("toricgenus.class_terms", "toricgenus.numerator_terms"),
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS + ("bench",):
        units["%s.self_s" % layer] = "s"
    units.update({name + "_s": "s" for name in SPANS})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({"%s.errors" % layer: "count" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "stage": STAGES.get(name),
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)


def self_times(spans):
    """Span id -> duration minus the time its child spans cover.

    Children of one span run one after another inside it, so the time they
    cover is the sum of their durations."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
    out = {}
    for layer in LAYERS + ("bench",):
        prefix = layer + "."
        out[prefix + "self_s"] = sum(t for name, t in by_name.items() if name.startswith(prefix))
    for name in SPANS:
        out[name + "_s"] = by_name.get(name, 0.0)
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    for metric, (num, den) in RATIOS.items():
        out[metric] = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
    for layer in LAYERS:
        # layer spans never nest inside each other, so each exception that
        # left a layer call is counted once
        out[layer + ".errors"] = sum(1 for s in spans if s["error"] and s["name"].startswith(layer + "."))
    return out
