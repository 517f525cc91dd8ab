"""Outside-in tracing of the qheis layers.

The tracer wraps the public functions of each layer where their callers bind
them (``qheis.heisenberg.invert``, ``qheis.verma.det``, ...), the methods of
``VermaModule`` and the arithmetic operators of ``Scalar`` on the class.  It
never edits the package: it swaps module and class attributes in the running
worker only.

Spans are kept in memory.  Scalar operators are too frequent to get a span
each, so every span instead carries the count and the time of the Scalar
operations that ran directly under it.  A span's self time is its duration
minus the part of it covered by child spans, minus its Scalar time.
"""

from __future__ import annotations

from time import perf_counter

# (span name, module, attribute): functions wrapped wherever they are bound.
FUNCTIONS = [
    ("cli.run", "qheis.cli", "run"),
    ("cartan.load_type", "qheis.cartan", "load_type"),
    # cached helpers get spans so that the Scalar work of a cache miss is
    # charged to them, not to whichever layer happened to miss first
    ("qscalar.qint", "qheis.qscalar", "qint"),
    ("qscalar.qfactorial", "qheis.qscalar", "qfactorial"),
    ("heisenberg.structure_constant", "qheis.heisenberg", "structure_constant"),
    ("heisenberg.gamma_bracket", "qheis.heisenberg", "_gamma_bracket_cached"),
    ("heisenberg.central_bracket", "qheis.heisenberg", "_central_bracket_cached"),
    ("cartan.positive_roots", "qheis.cartan", "positive_roots"),
    ("termalg.normal_order", "qheis.termalg", "normal_order"),
    ("termalg.reduce_element", "qheis.termalg", "reduce_element"),
    ("termalg.multiply", "qheis.termalg", "multiply"),
    ("termalg.commutator", "qheis.termalg", "commutator"),
    ("linalg.invert", "qheis.linalg", "invert"),
    ("linalg.det", "qheis.linalg", "det"),
    ("heisenberg.verify", "qheis.heisenberg", "verify_canonical_relations"),
    ("heisenberg.inverse", "qheis.heisenberg", "inverse_structure_matrix"),
    ("heisenberg.report", "qheis.heisenberg", "report_to_json"),
    ("weyliso.verify", "qheis.weyliso", "verify_weyl_iso"),
    ("loopweights.weight_multiplicity", "qheis.loopweights", "weight_multiplicity"),
    ("loopweights.phi_verma_weight_dim", "qheis.loopweights", "phi_verma_weight_dim"),
    ("loopweights.phi_verma_graded_dims", "qheis.loopweights", "phi_verma_graded_dims"),
]

# (span name, attribute of qheis.verma.VermaModule)
METHODS = [
    ("verma.irred", "irreducible_at_truncation"),
    ("verma.gram", "gram_matrix"),
    ("verma.vacuum_pairing", "vacuum_pairing"),
    ("verma.graded_dim", "graded_dim"),
]

# Scalar operator -> operation class.  Operators that call other operators
# (a - b is a + (-b), a ** k is repeated products) count once, as the outer one.
SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
}
OP_KINDS = ("add", "mul", "div")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs", "ops", "op_s")

    def __init__(self, name, start, end, parent, job, attrs=None, ops=None, op_s=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent          # index of the enclosing span, or None
        self.job = job                # index of the job in the round
        self.attrs = attrs or {}
        self.ops = ops or {k: 0 for k in OP_KINDS}
        self.op_s = op_s or {k: 0.0 for k in OP_KINDS}

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "attrs": self.attrs,
                "ops": self.ops, "op_s": self.op_s}


def _word_len(element):
    return max((len(w) for (w, _), _ in element.items()), default=0)


def _attrs_for(name, args, result):
    """Counts recorded at the layer boundary, from arguments and result."""
    if name.startswith("termalg."):
        if name == "termalg.normal_order":
            longest = len(args[0])
        elif name == "termalg.reduce_element":
            longest = _word_len(args[0])
        else:
            longest = _word_len(args[0]) + _word_len(args[1])
        return {"out_terms": sum(1 for _ in result.items()), "word_len": longest}
    if name == "linalg.det":
        return {"dim": len(args[0])}
    if name in ("heisenberg.verify", "weyliso.verify"):
        return {"checks": len(result)}
    if name == "heisenberg.inverse":
        alg, k = args[0], args[1]
        return {"key": f"{alg.cartan.series}{alg.cartan.rank}/{alg.convention.value}/"
                       f"{alg.level}/{k}"}
    if name == "verma.gram":
        entries = sum(len(row) for row in result)
        zeros = sum(1 for row in result for x in row if x.is_zero)
        return {"entries": entries, "zeros": zeros}
    return None


class Tracer:
    """Records spans for one round of jobs in one worker process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.in_op = False
        self.max_terms = 0
        self.max_span = 0
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, 0.0, parent, self.job)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            attrs = _attrs_for(name, args, result)
            if attrs:
                span.attrs = attrs
            return result

        return traced

    def _wrap_op(self, kind, fn):
        spans, stack = self.spans, self.stack

        def op(*args):
            if self.in_op or not stack:
                return fn(*args)
            self.in_op = True
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                dt = perf_counter() - t0
                self.in_op = False
            span = spans[stack[-1]]
            span.ops[kind] += 1
            span.op_s[kind] += dt
            if result is not NotImplemented:
                num, den = result.num_terms, result.den_terms
                terms = len(num) + len(den)
                if terms > self.max_terms:
                    self.max_terms = terms
                exps = list(num) + list(den)
                width = max(exps) - min(exps)
                if width > self.max_span:
                    self.max_span = width
            return result

        return op

    def _swap(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap every target in the given loaded modules (name -> module)."""
        for name, modname, attr in FUNCTIONS:
            original = getattr(modules[modname], attr)
            traced = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, traced)
        vm = modules["qheis.verma"].VermaModule
        for name, attr in METHODS:
            self._swap(vm, attr, self._wrap(name, vm.__dict__[attr]))
        scalar = modules["qheis.qscalar"].Scalar
        for attr, kind in SCALAR_OPS.items():
            self._swap(scalar, attr, self._wrap_op(kind, scalar.__dict__[attr]))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- aggregation --------------------------------------------------------------

def covered(interval, children):
    """Length of the union of the child intervals, clipped to `interval`."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in children):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: duration - child coverage - Scalar time."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered((s.start, s.end), children[i]) - sum(s.op_s.values())
            for i, s in enumerate(spans)]


def _outermost(spans, prefix):
    """Spans whose name starts with `prefix` and that no such span encloses."""
    out = []
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and not spans[p].name.startswith(prefix):
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, stdout_bytes, qint_info, sc_info, max_terms, max_span):
    """Per-layer metrics of one traced round.

    Times are reported as a percentage of the traced job time (the summed
    duration of the ``cli.run`` spans), so a layer that a workload never
    enters reads 0 % instead of a constant 0 s.
    """
    selfs = self_times(spans)
    job_s = sum(s.end - s.start for s in spans if s.name == "cli.run")

    def share(seconds):
        return 100.0 * _ratio(seconds, job_s)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(prefix):
        return sum(s.end - s.start for s in _outermost(spans, prefix))

    def self_of(prefix):
        return sum(selfs[i] for i, s in enumerate(spans) if s.name.startswith(prefix))

    ops = {k: sum(s.ops[k] for s in spans) for k in OP_KINDS}
    op_s = {k: sum(s.op_s[k] for s in spans) for k in OP_KINDS}
    m = {}
    m["cli.self_share"] = share(self_of("cli."))
    m["cli.stdout_bytes"] = stdout_bytes
    m["qscalar.ops"] = sum(ops.values())
    for k in OP_KINDS:
        m[f"qscalar.{k}.count"] = ops[k]
    m["qscalar.self_share"] = share(sum(op_s.values()) + self_of("qscalar."))
    m["qscalar.mul.self_share"] = share(op_s["mul"])
    m["qscalar.add.self_share"] = share(op_s["add"])
    m["qscalar.max_terms"] = max_terms
    m["qscalar.max_span"] = max_span
    m["qscalar.qint.hit_ratio"] = _ratio(qint_info[0], qint_info[0] + qint_info[1])

    term = [s for s in spans if s.name.startswith("termalg.")]
    out_terms = sum(s.attrs["out_terms"] for s in _outermost(spans, "termalg."))
    m["termalg.calls"] = len(term)
    m["termalg.self_share"] = share(self_of("termalg."))
    m["termalg.out_terms"] = out_terms
    m["termalg.max_word_len"] = max((s.attrs["word_len"] for s in term), default=0)
    m["termalg.scalar_ops_per_out_term"] = _ratio(
        sum(sum(s.ops.values()) for s in term), out_terms)

    m["linalg.invert.calls"] = len(named("linalg.invert"))
    m["linalg.invert.total_share"] = share(total("linalg.invert"))
    m["linalg.det.calls"] = len(named("linalg.det"))
    m["linalg.det.total_share"] = share(total("linalg.det"))
    m["linalg.det.max_dim"] = max((spans[i].attrs["dim"] for i in named("linalg.det")),
                                  default=0)

    verify_s = total("heisenberg.verify")
    checks = sum(spans[i].attrs["checks"] for i in named("heisenberg.verify"))
    inverse = [spans[i] for i in named("heisenberg.inverse")]
    distinct = len({(s.job, s.attrs["key"]) for s in inverse})
    m["heisenberg.verify.total_share"] = share(verify_s)
    m["heisenberg.verify.self_share"] = share(self_of("heisenberg.verify"))
    m["heisenberg.checks"] = checks
    m["heisenberg.checks_per_s"] = _ratio(checks, verify_s)
    m["heisenberg.inverse.calls"] = len(inverse)
    m["heisenberg.inverse.useful_ratio"] = _ratio(distinct, len(inverse))
    m["heisenberg.structure_constant.hit_ratio"] = _ratio(sc_info[0], sc_info[0] + sc_info[1])
    m["heisenberg.report.total_share"] = share(total("heisenberg.report"))

    m["weyliso.verify.total_share"] = share(total("weyliso.verify"))
    m["weyliso.verify.self_share"] = share(self_of("weyliso.verify"))
    m["weyliso.checks"] = sum(spans[i].attrs["checks"] for i in named("weyliso.verify"))

    gram = [spans[i] for i in named("verma.gram")]
    entries = sum(s.attrs["entries"] for s in gram)
    m["verma.irred.total_share"] = share(total("verma.irred"))
    m["verma.gram.total_share"] = share(total("verma.gram"))
    m["verma.gram.entries"] = entries
    m["verma.gram.zero_share"] = _ratio(sum(s.attrs["zeros"] for s in gram), entries)
    m["verma.vacuum_pairing.calls"] = len(named("verma.vacuum_pairing"))
    m["verma.graded_dim.total_share"] = share(total("verma.graded_dim"))

    m["loopweights.calls"] = sum(1 for s in spans if s.name.startswith("loopweights."))
    m["loopweights.total_share"] = share(total("loopweights."))
    m["loopweights.self_share"] = share(self_of("loopweights."))

    m["cartan.calls"] = sum(1 for s in spans if s.name.startswith("cartan."))
    m["cartan.total_share"] = share(total("cartan."))

    return m


# Every per-layer metric: name -> (unit, which direction is better).  Shares
# are percentages of traced job time; counts and ratios must repeat exactly.
LAYER_METRICS = {
    "cli.self_share": ("%", "lower"),
    "cli.stdout_bytes": ("count", "lower"),
    "qscalar.ops": ("count", "lower"),
    "qscalar.add.count": ("count", "lower"),
    "qscalar.mul.count": ("count", "lower"),
    "qscalar.div.count": ("count", "lower"),
    "qscalar.self_share": ("%", "lower"),
    "qscalar.mul.self_share": ("%", "lower"),
    "qscalar.add.self_share": ("%", "lower"),
    "qscalar.max_terms": ("count", "lower"),
    "qscalar.max_span": ("count", "lower"),
    "qscalar.qint.hit_ratio": ("ratio", "higher"),
    "termalg.calls": ("count", "lower"),
    "termalg.self_share": ("%", "lower"),
    "termalg.out_terms": ("count", "lower"),
    "termalg.max_word_len": ("count", "lower"),
    "termalg.scalar_ops_per_out_term": ("ratio", "lower"),
    "linalg.invert.calls": ("count", "lower"),
    "linalg.invert.total_share": ("%", "lower"),
    "linalg.det.calls": ("count", "lower"),
    "linalg.det.total_share": ("%", "lower"),
    "linalg.det.max_dim": ("count", "lower"),
    "heisenberg.verify.total_share": ("%", "lower"),
    "heisenberg.verify.self_share": ("%", "lower"),
    "heisenberg.checks": ("count", "higher"),
    "heisenberg.checks_per_s": ("1/s", "higher"),
    "heisenberg.inverse.calls": ("count", "lower"),
    "heisenberg.inverse.useful_ratio": ("ratio", "higher"),
    "heisenberg.structure_constant.hit_ratio": ("ratio", "higher"),
    "heisenberg.report.total_share": ("%", "lower"),
    "weyliso.verify.total_share": ("%", "lower"),
    "weyliso.verify.self_share": ("%", "lower"),
    "weyliso.checks": ("count", "higher"),
    "verma.irred.total_share": ("%", "lower"),
    "verma.gram.total_share": ("%", "lower"),
    "verma.gram.entries": ("count", "lower"),
    "verma.gram.zero_share": ("ratio", "higher"),
    "verma.vacuum_pairing.calls": ("count", "lower"),
    "verma.graded_dim.total_share": ("%", "lower"),
    "loopweights.calls": ("count", "lower"),
    "loopweights.total_share": ("%", "lower"),
    "loopweights.self_share": ("%", "lower"),
    "cartan.calls": ("count", "lower"),
    "cartan.total_share": ("%", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Metrics that count work: they must repeat exactly between traced rounds.
COUNT_METRICS = tuple(name for name, (unit, _) in LAYER_METRICS.items()
                      if unit in ("count", "ratio") and name != "trace.overhead_ratio")
