"""Outside-in tracing of valdist's layers.

The tracer wraps public functions of each layer from outside the
package: every module under ``valdist`` that holds a reference to a
wrapped function gets the wrapper in its place, so calls between layers
(``nevanlinna.localize_roots``, ``verify.proximity_m``, ...) are seen as
well as calls from the benchmark. Spans (name, start, end, parent, item)
stay in memory until the run ends; counters are taken at the same
boundaries, so they count work where it happens.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, layer, span name); Polynomial methods are patched on the class
WRAPPED = [
    ("algebra", "Polynomial.eval_many", "algebra", "algebra.eval_many"),
    ("algebra", "Polynomial.eval_exact", "algebra", "algebra.eval_exact"),
    ("algebra", "reduce_common_roots", "algebra", "algebra.reduce"),
    ("localize", "localize_roots", "localize", "localize.localize_roots"),
    ("localize", "fta_witness", "localize", "localize.fta_witness"),
    ("quadrature", "adaptive_simpson", "quadrature", "quadrature.adaptive_simpson"),
    ("nevanlinna", "proximity_m", "nevanlinna", "nevanlinna.proximity_m"),
    ("nevanlinna", "build_profile", "nevanlinna", "nevanlinna.build_profile"),
    ("verify", "verify_first_fundamental", "verify", "verify.verify_first_fundamental"),
    ("verify", "verify_second_fundamental", "verify", "verify.verify_second_fundamental"),
    ("verify", "verify_degree_growth", "verify", "verify.verify_degree_growth"),
]

LOCALIZE_PASS_NODES = 2**14


class Tracer:
    def __init__(self):
        self.names = [span for _, _, _, span in WRAPPED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.failed = array("b")
        self.counts: Counter = Counter()
        self.item_id = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans per layer
        self._restore: list = []

    # -- patching ----------------------------------------------------------------

    def install(self, package) -> None:
        """Replace every wrapped function in every valdist namespace."""
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        for mod_name, attr, layer, span in WRAPPED:
            module = sys.modules[f"{prefix}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(original, layer, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, fn, layer, span):
        nid = self.names.index(span)
        before = self._counters(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self.item_id)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._open[layer] += 1
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                self._open[layer] -= 1

        return traced

    def _counters(self, span):
        """Work counters read from a call's arguments, keyed by span name."""
        counts, opened = self.counts, self._open

        if span == "algebra.eval_many":

            def before(args):
                n = int(np.size(args[1]))
                counts["algebra.eval_many.nodes"] += n
                if opened["localize"]:
                    counts["localize.nodes"] += n
                    if n >= LOCALIZE_PASS_NODES:
                        counts["localize.passes_over_16k"] += 1
                return args

        elif span == "algebra.eval_exact":

            def before(args):
                if opened["localize"]:
                    counts["localize.exact_calls"] += 1
                return args

        elif span == "localize.localize_roots":

            def before(args):
                if opened["nevanlinna"] or opened["verify"]:
                    counts["nevanlinna.enumerations"] += 1
                return args

        elif span == "quadrature.adaptive_simpson":

            def before(args):
                integrand = args[0]

                def counted(x):
                    counts["quadrature.evals"] += int(np.size(x))
                    return integrand(x)

                return (counted, *args[1:])

        else:
            return None
        return before

    # -- results -----------------------------------------------------------------

    def span_table(self):
        """Per span name: (calls, self seconds, failed)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        failed = np.bincount(names, weights=np.frombuffer(self.failed, dtype=np.int8), minlength=k)
        return {
            name: (int(calls[i]), float(self_s[i]), int(failed[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
