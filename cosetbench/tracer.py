"""Run one cosetgeom CLI invocation with every layer wrapped from outside.

Usage::

    PYTHONPATH=src python3 cosetbench/tracer.py TRACE.jsonl <cosetgeom argv...>

The report still goes to stdout, byte for byte as ``python -m cosetgeom``
writes it, and the exit code is the CLI's.  The trace goes to TRACE.jsonl:
one ``span`` line per call of a timed function (name, start, end, parent
index, whether an exception escaped, and a size for a few results), then one
``counts`` line and one ``meta`` line.

Public functions of the analysis modules get timed spans.  Public functions
of ``groups``, ``intmat`` and ``subgroups`` and the ``Group.apply_letter`` and
``Group.multiply`` methods run once per vertex or per letter, so they are
only counted.  Every module namespace that imported a wrapped name is
patched too, so nested calls become child spans: ``cli`` imports
``cached_ball`` by name, ``lift_constants`` calls ``compute_f``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

SPANNED = ("cayley", "cosetgraph", "metrics", "ends", "lifting", "homotopy", "dot")
COUNTED = ("groups", "intmat", "subgroups")
GROUP_METHODS = ("apply_letter", "multiply")

# Sizes recorded on a span, taken from the wrapped function's result.
OBSERVE = {
    "cayley.build_ball": lambda ball: ball.n_vertices,
    "cayley.cached_ball": lambda ball: ball.n_vertices,
    "cosetgraph.build_coset_patch": lambda patch: patch.n_cosets,
}

NAME, START, END, PARENT, FAILED, VALUE = range(6)


class Tracer:
    """Spans and counters for one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.ticks = {}
        self.error_ticks = {}
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn):
        spans, clock, observe = self.spans, time.perf_counter, OBSERVE.get(name)
        main_stack, error = self._main_stack, self._error_tick(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A pool thread has no open span: its work belongs to the span
            # the main thread is waiting in.
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            rec = [name, clock(), None, parent, False, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                error()
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                rec[VALUE] = observe(result)
            return result

        return wrapper

    def counted(self, name, fn):
        tick, error = self._tick(name), self._error_tick(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error()
                raise

        return wrapper

    # itertools.count is advanced in C, so pool threads lose no ticks.
    def _tick(self, name):
        return self.ticks.setdefault(name, itertools.count()).__next__

    def _error_tick(self, name):
        module = name.split(".")[0]
        return self.error_ticks.setdefault(module, itertools.count()).__next__

    def install(self):
        """Wrap the package's public functions in every namespace holding them."""
        import cosetgeom.cli

        replaced = {}
        for module_name in SPANNED + COUNTED:
            module = importlib.import_module(f"cosetgeom.{module_name}")
            wrap = self.timed if module_name in SPANNED else self.counted
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    replaced[id(obj)] = wrap(f"{module_name}.{attr}", obj)
        replaced[id(cosetgeom.cli.main)] = self.timed("cli.main", cosetgeom.cli.main)
        for name, module in list(sys.modules.items()):
            if name == "cosetgeom" or name.startswith("cosetgeom."):
                for attr, obj in list(vars(module).items()):
                    wrapper = replaced.get(id(obj))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)

        groups = importlib.import_module("cosetgeom.groups")
        for cls in vars(groups).values():
            if inspect.isclass(cls) and issubclass(cls, groups.Group):
                for method in GROUP_METHODS:
                    if method in vars(cls):
                        wrapped = self.counted(f"groups.Group.{method}", vars(cls)[method])
                        setattr(cls, method, wrapped)
        return cosetgeom.cli.main

    def dump(self, fh):
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        for rec in self.spans:
            parent = rec[PARENT]
            fh.write(
                json.dumps(
                    {
                        "span": rec[NAME],
                        "start": rec[START],
                        "end": rec[END],
                        "parent": None if parent is None else index[id(parent)],
                        "failed": rec[FAILED],
                        "value": rec[VALUE],
                    }
                )
                + "\n"
            )
        fh.write(
            json.dumps(
                {
                    "counts": {k: next(c) for k, c in self.ticks.items()},
                    "errors": {k: next(c) for k, c in self.error_ticks.items()},
                }
            )
            + "\n"
        )


def main(argv):
    trace_path, cli_argv = argv[0], argv[1:]
    import cosetgeom.cli  # noqa: F401  (import time stays part of start-up)

    t0 = time.perf_counter()
    tracer = Tracer()
    cli_main = tracer.install()
    patch_s = time.perf_counter() - t0
    try:
        code = cli_main(cli_argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t1 = time.perf_counter()
    with open(trace_path, "w") as fh:
        tracer.dump(fh)
        fh.flush()
        meta = {"patch_s": patch_s, "dump_s": time.perf_counter() - t1}
        fh.write(json.dumps({"meta": meta}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
