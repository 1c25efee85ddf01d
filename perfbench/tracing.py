"""Per-layer tracing from outside the program.

The tracer rebinds each public function under the name its caller looks it up
by (a module global), and times Grid / NaturalSquare through __init__ on the
class, because other modules call isinstance on those names. Each wrapper
keeps call counts, inclusive time, self time (inclusive minus time in wrapped
callees) and exceptions raised. Everything is single-threaded, so one stack
of child-time accumulators is enough.
"""

from __future__ import annotations

import functools
from time import perf_counter

STATS = ("calls", "s", "self_s", "errors")

# (owner attribute path, attribute, layer name). A layer listed twice is one
# function that callers look up in two modules; both bindings feed one entry.
BINDINGS = (
    ("construct", "is_invertible_mod", "construct.is_invertible_mod"),
    ("construct", "generate_most_perfect", "construct.generate_most_perfect"),
    ("cli", "generate_most_perfect", "construct.generate_most_perfect"),
    ("construct", "candidate_to_square", "construct.candidate_to_square"),
    ("construct", "verify_all", "construct.verify_all"),
    ("properties", "verify_all", "properties.verify_all"),
    ("cli", "verify_all", "properties.verify_all"),
    ("properties", "check_natural", "properties.check_natural"),
    ("properties", "check_semi_magic", "properties.check_semi_magic"),
    ("properties", "check_pandiagonal", "properties.check_pandiagonal"),
    ("properties", "check_complementary", "properties.check_complementary"),
    ("cli", "check_complementary", "properties.check_complementary"),
    ("properties", "check_pxp", "properties.check_pxp"),
    ("properties", "check_one_over_p", "properties.check_one_over_p"),
    ("properties", "check_franklin_patterns", "properties.check_franklin_patterns"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_square", "cli.parse_square"),
    ("cli", "emit_square", "cli.emit_square"),
    ("involution", "theta", "involution.theta"),
    ("cli", "theta", "involution.theta"),
    ("core.Grid", "__init__", "core.Grid"),
    ("core.NaturalSquare", "__init__", "core.NaturalSquare"),
    ("patterns", "franklin_cells", "patterns.franklin_cells"),
    ("properties", "franklin_cells", "patterns.franklin_cells"),
    ("cli", "franklin_cells", "patterns.franklin_cells"),
    ("patterns", "select_blocks", "patterns.select_blocks"),
    ("patterns", "block_intersection", "patterns.block_intersection"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in BINDINGS))

# Layer metrics that are not per-function stats, with their units.
DERIVED = (
    ("construct.invertible_ratio", "ratio"),
    ("construct.screen_yield", "ratio"),
    ("properties.verdicts_failed", "count/op"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead", "ratio"),
)

UNITS = {"calls": "calls/op", "s": "s/op", "self_s": "s/op", "errors": "count"}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{layer}.{stat}", UNITS[stat]) for layer in LAYERS for stat in STATS]
    return names + list(DERIVED)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs timing wrappers on the package and accumulates per-layer stats."""

    def __init__(self, package):
        self.package = package
        self.stats = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}
        self.returned = 0
        self.verdicts_failed = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, post=None):
        entry = self.stats[layer]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                entry[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(result)
            return result

        return wrapper

    def _post(self, layer: str):
        if layer == "construct.generate_most_perfect":
            def post(_square):
                self.returned += 1
        elif layer.endswith(".verify_all"):
            def post(report):
                self.verdicts_failed += sum(not v.passed for v in report.verdicts)
        else:
            post = None
        return post

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for path, attr, layer in BINDINGS:
            owner = _resolve(self.package, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, self._post(layer)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer stats over `ops` traced operations (errors as a total)."""
        out: dict[str, float] = {}
        for layer, (calls, incl, self_s, errors) in self.stats.items():
            out[f"{layer}.calls"] = calls / ops
            out[f"{layer}.s"] = incl / ops
            out[f"{layer}.self_s"] = self_s / ops
            out[f"{layer}.errors"] = errors
        # generate_most_perfect tests each candidate with is_invertible_mod and hands
        # the invertible ones to candidate_to_square, which tests them once more.
        invertible = self.stats["construct.candidate_to_square"][0]
        tried = self.stats["construct.is_invertible_mod"][0] - invertible
        screened = self.stats["construct.verify_all"][0]
        out["construct.invertible_ratio"] = invertible / tried if tried else 0.0
        out["construct.screen_yield"] = self.returned / screened if screened else 0.0
        out["properties.verdicts_failed"] = self.verdicts_failed / ops
        return out
