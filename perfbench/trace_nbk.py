"""Run one nbk invocation with spans recorded around the engine's layers.

    python3 perfbench/trace_nbk.py SPAN_FILE NBK_ARGUMENT...

The package is imported, the public functions and methods listed below are
wrapped from here (nothing inside ``src/`` changes), and then ``cli.main`` runs
with the given arguments exactly as the ``nbk`` console script runs it.

Spans stay in memory until the command has finished. They are then written
out: ``SPAN_FILE`` gets a JSON header (span names, counters, targets that were
not found) and ``SPAN_FILE.bin`` four native int64 values per span: name
index, offset of the parent span in the buffer (-1 at top level), start and
end in nanoseconds of ``time.perf_counter_ns``.
"""
from __future__ import annotations

import array
import functools
import json
import sys
import time

from ncbieberbach import actions, cli, crossed, ktheory, scalars, torus

_clock = time.perf_counter_ns
_names: list[str] = []
_spans = array.array("q")
_stack = [-1]
_counters: dict[str, int] = {}
_missing: list[str] = []


def _count(key: str, amount: int = 1) -> None:
    _counters[key] = _counters.get(key, 0) + amount


def _nterms(x) -> int:
    terms = getattr(x, "_terms", None)
    return len(terms) if terms is not None else len(x.terms())


def traced(name: str, fn, count=None):
    """``fn`` wrapped so that every call records one span called ``name``."""
    nid = len(_names)
    _names.append(name)
    # closure cells are faster to reach than globals; this runs millions of times
    spans, stack, clock = _spans, _stack, _clock
    extend, push, pop = spans.extend, stack.append, stack.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(*args, **kwargs)
        i = len(spans)
        push(i)
        extend((nid, stack[-2], clock(), 0))
        try:
            return fn(*args, **kwargs)
        finally:
            spans[i + 3] = clock()
            pop()

    return wrapper


# -- counters taken at the layer boundaries -------------------------------------


def _phased_mul(a, b):
    # a scalar operand that is not a PhasedScalar coerces to one term
    if _nterms(a) == 1 and (not isinstance(b, scalars.PhasedScalar) or _nterms(b) == 1):
        _count("scalars.phased_mul.single_term")


def _cyclotomic_mul(a, b):
    if a.is_rational() or not isinstance(b, scalars.Cyclotomic) or b.is_rational():
        _count("scalars.cyclotomic_mul.rational")


def _term_pairs(key):
    def count(a, b):
        if isinstance(b, type(a)):
            _count(key, _nterms(a) * _nterms(b))
    return count


def _scan_cocycles(fn):
    inner = traced("actions.scan_cocycles", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        admissible = sum(len(p) for p in result.patterns.values()) + len(result.all_rational)
        _count("actions.scan.admissible", admissible)
        return result

    return wrapper


def _psi_matrix(fn):
    """Spans of the first call on each crossed product get their own name."""
    first = traced("crossed.psi_matrix.first", fn)
    later = traced("crossed.psi_matrix", fn)
    seen: dict[int, object] = {}  # values keep the products alive, so ids stay unique

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if id(self) in seen:
            return later(self, *args, **kwargs)
        seen[id(self)] = self
        return first(self, *args, **kwargs)

    return wrapper


FUNCTIONS = (  # (module, attribute, span name or wrapper factory)
    (actions, "check_compatibility", "actions.check_compatibility"),
    (actions, "check_order", "actions.check_order"),
    (actions, "homogeneous_components", "actions.homogeneous_components"),
    (actions, "scan_cocycles", _scan_cocycles),
    (actions, "_candidate_matrix", "actions.scan.candidate"),
    (ktheory, "smith_normal_form", "ktheory.smith_normal_form"),
    (ktheory, "verify_beta_star", "ktheory.verify_beta_star"),
    (cli, "_emit", "cli.render"),
)

METHODS = (  # (class, attribute, span name or wrapper factory, counter)
    (scalars.Cyclotomic, "__mul__", "scalars.cyclotomic_mul", _cyclotomic_mul),
    (scalars.Cyclotomic, "__add__", "scalars.cyclotomic_add", None),
    (scalars.PhasedScalar, "__mul__", "scalars.phased_mul", _phased_mul),
    (torus.NcTorus, "__init__", "torus.algebra_init", None),
    (torus.NcTorus, "cocycle", "torus.cocycle", None),
    (torus.TorusElement, "__mul__", "torus.element_mul", _term_pairs("torus.element_mul.term_pairs")),
    (actions.ActionOnTorus, "power_image", "actions.power_image", None),
    (actions.ActionOnTorus, "apply", "actions.apply", None),
    (crossed.CrossedElement, "__mul__", "crossed.element_mul", _term_pairs("crossed.element_mul.term_pairs")),
    (crossed.CrossedElement, "star", "crossed.star", None),
    (crossed.CrossedProduct, "q_projector", "crossed.q_projector", None),
    (crossed.CrossedProduct, "matrix_units", "crossed.matrix_units", None),
    (crossed.CrossedProduct, "psi_matrix", _psi_matrix, None),
)


def _wrap(original, how, count):
    return traced(how, original, count) if isinstance(how, str) else how(original)


def install() -> None:
    """Replace every reference to each target, including aliases such as
    ``__rmul__ = __mul__`` and names imported into other package modules."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "ncbieberbach"]
    for module, attr, how in FUNCTIONS:
        original = getattr(module, attr, None)
        if original is None:
            _missing.append(f"{module.__name__}.{attr}")
            continue
        wrapped = _wrap(original, how, None)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for cls, attr, how, count in METHODS:
        original = vars(cls).get(attr)
        if original is None:
            _missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            continue
        wrapped = _wrap(original, how, count)
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, wrapped)
    runners = getattr(cli, "_SUITE_RUNNERS", {})
    for suite, runner in list(runners.items()):
        runners[suite] = traced(f"cli.suite.{suite}", runner)


def dump(path: str) -> None:
    convolve = getattr(scalars, "_convolve", None)
    if hasattr(convolve, "cache_info"):
        info = convolve.cache_info()
        _counters["scalars.convolve.hits"] = info.hits
        _counters["scalars.convolve.misses"] = info.misses
    with open(path + ".bin", "wb") as handle:
        _spans.tofile(handle)
    with open(path, "w") as handle:
        json.dump({"names": _names, "counters": _counters, "missing": _missing}, handle)


def main() -> None:
    path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        code = cli.main(argv)
    finally:
        dump(path)
    sys.exit(code)


if __name__ == "__main__":
    main()
