"""Which parts of ``apolar`` the benchmark treats as layers, how it traces
them from the outside, and the per-layer metrics it derives.

Layers are named after the modules:

- ``linalg.elim``: ``rank``, ``kernel``, ``invert`` and ``det``;
- ``linalg.pfaffian``: ``pfaffian`` and ``signed_maximal_pfaffians``;
- ``resolution`` and ``oracle``: every public function of the module;
- ``cli``: one span per command, so its self time is the command time that
  no other span covers (parsing, formatting, JSON output).

Spans replace the module attributes, so a call made through the module,
such as ``oracle`` calling ``linalg.rank`` or ``resolution`` calling its own
``explicit_generators``, is caught.  A name bound by ``from ... import``
elsewhere is not; none of the traced names is imported that way.
"""

from __future__ import annotations

import inspect
from collections import Counter
from fractions import Fraction
from types import ModuleType
from typing import Dict, List

from .patching import Replacement
from .spans import Span, SpanRecorder, self_times

ELIM = ("rank", "kernel", "invert", "det")
PFAFFIAN = ("pfaffian", "signed_maximal_pfaffians")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def layer_of(span_name: str) -> str:
    module, _, func = span_name.partition(".")
    if module == "linalg":
        return "linalg.elim" if func in ELIM else "linalg.pfaffian"
    return module


def _cells(m, *args, **kwargs) -> Dict[str, int]:
    return {"cells": m.rows * m.cols}


def _pfaffian_order(m, *args, **kwargs) -> Dict[str, int]:
    return {"order": m.rows}


def _maximal_order(m, *args, **kwargs) -> Dict[str, int]:
    return {"order": m.rows - 1}


def _public_functions(module: ModuleType) -> List[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def tracing_replacements(recorder: SpanRecorder) -> List[Replacement]:
    from apolar import cli, linalg, oracle, resolution

    attrs = {name: _cells for name in ELIM}
    attrs.update(pfaffian=_pfaffian_order,
                 signed_maximal_pfaffians=_maximal_order)
    out: List[Replacement] = [
        (linalg, name, recorder.wrap(f"linalg.{name}", getattr(linalg, name),
                                     fn_attrs))
        for name, fn_attrs in attrs.items() if hasattr(linalg, name)]
    for module in (resolution, oracle):
        short = module.__name__.rpartition(".")[2]
        out += [(module, name, recorder.wrap(f"{short}.{name}",
                                             getattr(module, name)))
                for name in _public_functions(module)]
    out.append((cli, "main", recorder.wrap("cli.main", cli.main)))
    return out


def counting_replacements(counts: Counter) -> List[Replacement]:
    """Count each scalar operation and polynomial product into ``counts``
    under ``scalars.fp_ops``, ``scalars.q_ops`` and ``poly.mul_calls``."""
    from apolar.poly import Polynomial
    from apolar.scalars import FpElement

    def counted(key: str, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    out: List[Replacement] = []
    for cls, key in ((FpElement, "scalars.fp_ops"), (Fraction, "scalars.q_ops")):
        out += [(cls, name, counted(key, vars(cls)[name]))
                for name in ARITHMETIC if name in vars(cls)]
    out.append((Polynomial, "__mul__",
                counted("poly.mul_calls", vars(Polynomial)["__mul__"])))
    return out


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own = self_times(spans)
    self_s: Dict[str, float] = Counter()
    calls: Dict[str, int] = Counter()
    cells = 0
    max_order = 0
    for s in spans:
        layer = layer_of(s.name)
        self_s[layer] += own[s.id]
        calls[layer] += 1
        calls[s.name] += 1
        cells += s.attrs.get("cells", 0)
        max_order = max(max_order, s.attrs.get("order", 0))
    return {
        "linalg.elim.calls": calls["linalg.elim"],
        "linalg.elim.self_s": self_s["linalg.elim"],
        "linalg.elim.cells": cells,
        "linalg.pfaffian.calls": calls["linalg.pfaffian"],
        "linalg.pfaffian.self_s": self_s["linalg.pfaffian"],
        "linalg.pfaffian.max_order": max_order,
        "resolution.self_s": self_s["resolution"],
        "resolution.explicit_generators.calls":
            calls["resolution.explicit_generators"],
        "oracle.self_s": self_s["oracle"],
        "oracle.annihilator_degree.calls": calls["oracle.annihilator_degree"],
        "cli.self_s": self_s["cli"],
    }
