"""Run one `wilsonq` command with every public function of the layer modules
wrapped in a span recorder, then write the spans out at exit.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py --spans OUT.json -- verify --pmin 7 --pmax 50 ...

The wrappers are installed from outside the package: each public function
defined in a layer module is replaced, in *every* ``wilsonq`` module
namespace that holds it, by one recording wrapper.  ``from .bernoulli import
bnpd`` leaves an alias in ``harness`` and ``formulas``; wrapping only the
defining module would miss the calls made through those aliases.

A span is one call: (id, parent id, layer, function, prime, start, end).  The
prime is the argument of the enclosing ``harness.check_prime`` call and
serves as the request id; it is ``null`` outside any prime.  A call repeats
when the same function already saw the same arguments for the same prime.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
import types

#: Module name -> layer name.  ``residues`` is left out on purpose: it makes
#: millions of calls, so its time shows up in its callers' self time.
#: ``cli`` is covered by the set-up measurement, ``results`` is a dataclass.
LAYERS = {
    "wilsonq.bernoulli": "bernoulli",
    "wilsonq.oracles": "oracles",
    "wilsonq.formulas": "formulas",
    "wilsonq.differences": "differences",
    "wilsonq.polys": "polys",
    "wilsonq.harness": "harness",
}

SPAN_COLUMNS = ("id", "parent", "layer", "function", "prime", "start", "end")
_PLAIN = (int, str, bool, float, type(None))


class Recorder:
    """In-memory spans, call counts and repeat counts for one process."""

    def __init__(self):
        self.origin = time.perf_counter()
        #: A span's id is its position; the slot is filled when the call ends.
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.prime: int | None = None
        self.calls: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.tag_seconds: dict[str, float] = {}
        self.rows = 0
        self._seen: dict[str, set] = {}

    def _arg_key(self, params, defaults, args, kwargs):
        """Hashable form of the bound arguments, or None when any argument is
        not plain data (callables and bundles are never counted as repeats)."""
        values = list(args)
        for name in params[len(args):]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in defaults:
                values.append(defaults[name])
            else:
                return None
        out = []
        for v in values:
            if isinstance(v, _PLAIN):
                out.append(v)
            elif type(v).__name__ == "Modulus":
                out.append(("Modulus", v.p, v.r))
            else:
                return None
        return tuple(out)

    def wrap(self, fn: types.FunctionType, layer: str):
        key = f"{layer}.{fn.__name__}"
        code = fn.__code__
        params = code.co_varnames[: code.co_argcount]
        defaults = dict(zip(params[len(params) - len(fn.__defaults__ or ()):], fn.__defaults__ or ()))
        trackable = not (code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
                             or code.co_kwonlyargcount)
        is_check_prime = key == "harness.check_prime"
        self.calls.setdefault(key, 0)
        self.repeats.setdefault(key, 0)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_prime = rec.prime
            if is_check_prime:
                rec.prime = args[0] if args else kwargs["p"]
                rec._seen = {}
            rec.calls[key] += 1
            if trackable:
                arg_key = rec._arg_key(params, defaults, args, kwargs)
                if arg_key is not None:
                    seen = rec._seen.setdefault(key, set())
                    if arg_key in seen:
                        rec.repeats[key] += 1
                    else:
                        seen.add(arg_key)
            parent = rec.stack[-1] if rec.stack else -1
            sid = len(rec.spans)
            rec.spans.append(None)
            rec.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans[sid] = (sid, parent, layer, fn.__name__, rec.prime,
                                  start - rec.origin, end - rec.origin)
                if is_check_prime:
                    rec.prime = outer_prime
                    rec._seen = {}
            if is_check_prime:
                for item in result:
                    rec.tag_seconds[item.tag] = rec.tag_seconds.get(item.tag, 0.0) + item.elapsed
                rec.rows += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function in every loaded wilsonq namespace."""
        wrappers: dict[int, types.FunctionType] = {}
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "wilsonq" and not mod_name.startswith("wilsonq."):
                continue
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                layer = LAYERS.get(value.__module__)
                if layer is None or value.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self.wrap(value, layer)
                setattr(module, attr, wrapper)

    def dump(self, path: str, argv: list[str], exit_code: int) -> None:
        doc = {
            "format": "wilsonq-perfbench-spans/1",
            "argv": argv,
            "exit_code": exit_code,
            "clock": "time.perf_counter seconds since the wrappers were installed",
            "columns": list(SPAN_COLUMNS),
            "spans": self.spans,
            "calls": self.calls,
            "repeats": self.repeats,
            "tag_seconds": self.tag_seconds,
            "rows": self.rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span file")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the wilsonq command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import wilsonq.cli

    recorder = Recorder()
    recorder.install()
    code = 1
    try:
        code = wilsonq.cli.main(command)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
        raise
    finally:
        recorder.dump(args.spans, command, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
