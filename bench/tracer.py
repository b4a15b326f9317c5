"""Run one `fockcrystal` CLI call with its layers traced from outside.

    python tracer.py OUT.json ARGS...

behaves like `python -m fockcrystal ARGS...` (same stdout and exit code)
but first wraps every public function and every public method of the
measured layer modules, and rebinds each `from .x import f` copy held by
other fockcrystal modules (and the CLI dispatch table) so that calls
between modules go through the wrappers.  Each wrapper keeps a call
count, inclusive time and self time (inclusive minus the time of the
wrapped calls it made).  The aggregates stay in memory and are written
to OUT.json when the call returns.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "jsonio", "params", "partitions", "crystal", "supports", "fock", "linalg")

# Extra counters, keyed by "layer.qualname": each maps (args, result) to
# an amount added to the named counter.
FOCK_OPS = ("e_z_op", "f_z_op", "b_plus_op", "b_minus_op")
EXTRAS = {
    "linalg.rref": lambda args, result: ("cells", len(args[0]) * (len(args[0][0]) if args[0] else 0)),
    "linalg.RowSpan.insert": lambda args, result: ("accepted", int(result is True)),
    "jsonio.canonical_dumps": lambda args, result: ("bytes_out", len(result.encode())),
    "jsonio.crystal_graph_to_dot": lambda args, result: ("bytes_out", len(result.encode())),
    **{f"fock.{name}": (lambda args, result: ("terms", len(args[0].entries))) for name in FOCK_OPS},
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self._children = [0.0]  # wrapped time spent inside each open span

    def wrap(self, key: str, fn):
        rec = self.stats.setdefault(key, [0, 0.0, 0.0])
        children = self._children
        extra = EXTRAS.get(key)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = children.pop()
                children[-1] += spent
                rec[0] += 1
                rec[1] += spent
                rec[2] += spent - inner
            if extra is not None:
                name, amount = extra(args, result)
                counters[f"{key}.{name}"] = counters.get(f"{key}.{name}", 0) + amount
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public callables and rebind every copy."""
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"fockcrystal.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(f"{layer}.{name}.{attr}", member))
                elif callable(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        for modname, module in list(sys.modules.items()):
            if modname == "fockcrystal" or modname.startswith("fockcrystal."):
                _rebind(vars(module), replaced)


def _rebind(namespace: dict, replaced: dict, nested: bool = False) -> None:
    for name, value in list(namespace.items()):
        hit = replaced.get(id(value))
        if hit is not None and hit[0] is value:
            namespace[name] = hit[1]
        elif not nested and isinstance(value, dict) and not str(name).startswith("__"):
            _rebind(value, replaced, nested=True)  # tables such as the CLI dispatch


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("fockcrystal.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    from fockcrystal import crystal

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    cache_info = getattr(crystal.km_depth.__wrapped__, "cache_info", None)
    cache = cache_info() if cache_info else None
    report = {
        "import_s": import_s,
        "functions": tracer.stats,
        "counters": tracer.counters,
        "km_depth_cache": [cache.hits, cache.misses] if cache else [0, 0],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
