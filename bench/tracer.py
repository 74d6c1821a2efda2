"""Span tracer that instruments nilco from outside its source tree.

Each traced public function is replaced, at every ``nilco.*`` module binding
that refers to it (``from .intmat import cokernel`` creates one in each
importing module) and on the owning class for methods, by a wrapper that
records a span: id, parent id, name, start, end and self time.  Hot leaf
methods (``element``, ``multiply``, ``power``, ``inverse``) only add to a call
count and an aggregate self time, so that tracing stays affordable.  Spans
are kept in memory; ``Tracer.write`` stores them when the run ends.

Self time is a span's duration minus the time covered by its traced
children, so the self times of all spans and leaves add up to the traced
wall time.
"""

import functools
import importlib
import sys
import time


def _snf_out_bits(args, result):
    return max(
        (abs(x).bit_length() for M in (result.U, result.D, result.V) for row in M.data for x in row),
        default=0,
    )


def _length(args, result):
    return len(result)


def _reidemeister_count(args, result):
    return result.count


def _group_order(args, result):
    return args[0].order


# (module, class or None, attribute, span name, leaf, note on the result)
TARGETS = (
    ("nilco.cli", None, "main", "cli.main", False, None),
    ("nilco.intmat", None, "smith_normal_form", "intmat.smith_normal_form", False, _snf_out_bits),
    ("nilco.intmat", None, "column_hermite", "intmat.column_hermite", False, None),
    ("nilco.intmat", None, "determinant", "intmat.determinant", False, None),
    ("nilco.intmat", None, "cokernel", "intmat.cokernel", False, None),
    ("nilco.intmat", None, "kernel_basis", "intmat.kernel_basis", False, None),
    ("nilco.intmat", None, "reduce_to_canonical_rep", "intmat.reduce_to_canonical_rep", False, None),
    ("nilco.intmat", None, "coset_representatives", "intmat.coset_representatives", False, _length),
    ("nilco.lattice", "NilpotentLattice", "element", "lattice.element", True, None),
    ("nilco.lattice", "NilpotentLattice", "multiply", "lattice.multiply", True, None),
    ("nilco.lattice", "NilpotentLattice", "power", "lattice.power", True, None),
    ("nilco.lattice", "NilpotentLattice", "inverse", "lattice.inverse", True, None),
    ("nilco.lattice", "NilpotentLattice", "reduce_mod", "lattice.reduce_mod", False, None),
    ("nilco.lattice", None, "apply_hom", "lattice.apply_hom", False, None),
    ("nilco.lattice", None, "validate_hom", "lattice.validate_hom", False, None),
    ("nilco.reidemeister", "TwistedOrbitEngine", "__init__", "reidemeister.engine_init", False, None),
    ("nilco.reidemeister", "TwistedOrbitEngine", "result", "reidemeister.result", False,
     _reidemeister_count),
    ("nilco.reidemeister", "TwistedOrbitEngine", "label", "reidemeister.label", False, None),
    ("nilco.reidemeister", "TwistedOrbitEngine", "move", "reidemeister.move", False, None),
    ("nilco.reidemeister", None, "coincidence_invariants", "reidemeister.coincidence_invariants",
     False, None),
    ("nilco.reidemeister", None, "coincidence_invariants_from_pairs",
     "reidemeister.coincidence_invariants_from_pairs", False, None),
    ("nilco.infra", None, "decide_infra", "infra.decide_infra", False, None),
    ("nilco.oracle", None, "twisted_orbits_finite", "oracle.twisted_orbits_finite", False,
     _group_order),
    ("nilco.oracle", None, "cokernel_oracle", "oracle.cokernel_oracle", False, None),
    ("nilco.oracle", None, "translation_group", "oracle.translation_group", False, None),
    ("nilco.problems", None, "parse_problem", "problems.parse_problem", False, None),
    ("nilco.problems", None, "validate_problem", "problems.validate_problem", False, None),
    ("nilco.problems", None, "compute_report", "problems.compute_report", False, None),
    ("nilco.problems", None, "report_dict", "problems.report_dict", False, None),
    ("nilco.problems", None, "canonical_json", "problems.canonical_json", False, _length),
    ("nilco.problems", None, "oracle_orbit_count", "problems.oracle_orbit_count", False, None),
)

LAYERS = ("cli", "intmat", "lattice", "reidemeister", "infra", "oracle", "problems")


class Tracer:
    """Span and leaf statistics of one single-threaded traced pass.

    `install` puts the wrappers in place and `uninstall` restores the
    original functions.
    """

    def __init__(self):
        self._stack = [[0, 0.0]]  # frames: [span id, time covered by children]
        self._next_id = 1
        self.spans = []  # (id, parent id, name, start, end, self, note)
        self.leaves = {}  # name -> [calls, self time]
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, describe):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                note = describe(args, result) if ok and describe else None
                # the note's cost is charged to no span
                parent[1] += clock() - start
                spans.append((sid, parent[0], name, start, end, end - start - frame[1], note))

        return wrapper

    def _leaf(self, name, fn):
        stack = self._stack
        stat = self.leaves.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][1] += end - start
                stat[0] += 1
                stat[1] += end - start - frame[1]

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        for module_name in {target[0] for target in TARGETS}:
            importlib.import_module(module_name)
        modules = [m for k, m in sys.modules.items() if k == "nilco" or k.startswith("nilco.")]
        for module_name, owner, attr, name, leaf, describe in TARGETS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                wrapped = self._leaf(name, original) if leaf else self._span(name, original, describe)
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = self._span(name, original, describe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    # -- results ---------------------------------------------------------

    def write(self, path):
        """Store every span as a tab-separated line (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tself\tnote\n")
            for sid, parent, name, start, end, self_s, note in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\t{note}\n")
            for name, (calls, self_s) in sorted(self.leaves.items()):
                fh.write(f"-\t-\t{name}\t-\t-\t{self_s:.9f}\tcalls={calls}\n")

    def calls(self):
        """Call count per traced name."""
        out = {name: stat[0] for name, stat in self.leaves.items()}
        for span in self.spans:
            out[span[2]] = out.get(span[2], 0) + 1
        return out

    def metrics(self):
        """Per-layer metrics: `<module>.<function>.<stat>` and layer totals."""
        calls = self.calls()
        self_s = {name: own for name, (_, own) in self.leaves.items()}
        total_s = {}
        notes = {}
        parent_of = {}
        name_of = {}
        for sid, parent, name, start, end, own, note in self.spans:
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            notes.setdefault(name, []).append((sid, parent, note))
            parent_of[sid] = parent
            name_of[sid] = name

        def under(sid, ancestor):
            sid = parent_of.get(sid, 0)
            while sid:
                if name_of[sid] == ancestor:
                    return True
                sid = parent_of.get(sid, 0)
            return False

        def spans_under(name, ancestor):
            return sum(1 for sid, _, _ in notes.get(name, ()) if under(sid, ancestor))

        out = {}

        def put(metric, value, unit):
            out[metric] = {"value": value, "unit": unit}

        def basic(name):
            put(f"{name}.calls", calls.get(name, 0), "count")
            put(f"{name}.self_s", self_s.get(name, 0.0), "s")

        def inclusive(name):
            put(f"{name}.total_s", total_s.get(name, 0.0), "s")

        for fn in ("smith_normal_form", "column_hermite", "determinant", "cokernel",
                   "kernel_basis", "reduce_to_canonical_rep", "coset_representatives"):
            basic(f"intmat.{fn}")
        put("intmat.smith_normal_form.out_bits_max",
            max((n for _, _, n in notes.get("intmat.smith_normal_form", ())), default=0),
            "bits")
        put("intmat.coset_representatives.items",
            sum(n for _, _, n in notes.get("intmat.coset_representatives", ())), "count")

        for fn in ("element", "multiply", "power", "inverse", "apply_hom", "validate_hom",
                   "reduce_mod"):
            basic(f"lattice.{fn}")

        for fn in ("engine_init", "result", "label", "move"):
            basic(f"reidemeister.{fn}")
        inclusive("reidemeister.result")
        inclusive("reidemeister.label")
        put("reidemeister.result.cokernel_calls",
            spans_under("intmat.cokernel", "reidemeister.result"), "count")

        basic("infra.decide_infra")
        inclusive("infra.decide_infra")
        cover_classes = sum(
            n for sid, parent, n in notes.get("reidemeister.result", ())
            if n is not None and name_of.get(parent) == "infra.decide_infra"
        )
        put("infra.decide_infra.cover_classes", cover_classes, "count")
        merge_labels = spans_under("reidemeister.label", "infra.decide_infra")
        put("infra.decide_infra.label_calls_per_cover_class",
            merge_labels / cover_classes if cover_classes else 0.0, "ratio")

        basic("oracle.twisted_orbits_finite")
        inclusive("oracle.twisted_orbits_finite")
        elements = sum(n for _, _, n in notes.get("oracle.twisted_orbits_finite", ()))
        put("oracle.twisted_orbits_finite.elements", elements, "count")
        enum_s = total_s.get("oracle.twisted_orbits_finite", 0.0)
        put("oracle.twisted_orbits_finite.elements_per_s",
            elements / enum_s if enum_s else 0.0, "1/s")
        basic("oracle.cokernel_oracle")
        put("oracle.translation_group.self_s", self_s.get("oracle.translation_group", 0.0),
            "s")

        for fn in ("parse_problem", "validate_problem", "compute_report", "report_dict",
                   "canonical_json"):
            put(f"problems.{fn}.self_s", self_s.get(f"problems.{fn}", 0.0), "s")
        put("problems.canonical_json.bytes",
            sum(n for _, _, n in notes.get("problems.canonical_json", ())), "bytes")

        for layer in LAYERS:
            put(f"layer.{layer}.self_s",
                sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0), "s")
        return out
