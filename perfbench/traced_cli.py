"""Run the ptwaveguide command line with its public functions timed.

Usage: python perfbench/traced_cli.py STATS.json CLI-ARGUMENT...

Every function named in ``TRACED`` is replaced, in each ``ptwaveguide``
module namespace that holds it (the defining module and every module that
imported it by name), by a wrapper that counts calls and busy time.  A
call's busy time is also charged as child time to the traced call that
encloses it, so a function's self time is its busy time minus its child
time.  The figures stay in memory and are written to STATS.json as the
command ends.  The stack of open calls belongs to the process, so only
single-threaded runs (the default ``--jobs 1``) are traced correctly.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter_ns

TRACED = {
    "ptwaveguide.quantities": ("load_config",),
    "ptwaveguide.medium": ("from_config", "k_squared_exact", "k_squared_approx"),
    "ptwaveguide.models": ("build_stack", "sweep", "pt_defect"),
    "ptwaveguide.helmholtz": ("amplitudes",),
    "ptwaveguide.timeprop": ("plan_packet_run", "scatter_packet", "potential_on_grid",
                             "initial_gaussian", "transmission_prediction"),
    "ptwaveguide.cli": ("cmd_sweep", "cmd_packet", "run_checks", "rows_to_csv",
                        "write_manifest"),
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, busy_ns, child_ns]
        self.counts = {"csv_bytes": 0, "point_steps": 0, "recorded_states": 0}
        self.missing: list[str] = []
        self._open: list[int] = []  # child time of each open traced call

    def install(self) -> None:
        packages = [m for name, m in sys.modules.items()
                    if name == "ptwaveguide" or name.startswith("ptwaveguide.")]
        for module_name, names in TRACED.items():
            module = sys.modules.get(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name.split('.')[1]}.{name}", original)
                for package in packages:
                    for attr, value in list(vars(package).items()):
                        if value is original:
                            setattr(package, attr, wrapper)

    def _wrap(self, key: str, fn):
        span = self.spans[key] = [0, 0, 0]
        after = getattr(self, "_after_" + fn.__name__, None)
        signature = inspect.signature(fn)
        open_calls = self._open

        def wrapper(*args, **kwargs):
            open_calls.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter_ns() - start
                child = open_calls.pop()
                span[0] += 1
                span[1] += busy
                span[2] += child
                if open_calls:
                    open_calls[-1] += busy
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _after_rows_to_csv(self, arguments, text) -> None:
        self.counts["csv_bytes"] += len(text.encode())

    def _after_scatter_packet(self, arguments, result) -> None:
        grid = arguments["grid"]
        n_steps = max(1, round(arguments["t_final"] / grid.dt))
        self.counts["point_steps"] += grid.n_points * n_steps
        self.counts["recorded_states"] += len(result.states)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": {key: {"calls": c, "busy_s": b * 1e-9, "child_s": ch * 1e-9}
                                 for key, (c, b, ch) in self.spans.items()},
                       "counts": self.counts, "missing": self.missing}, fh, indent=1)


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        import ptwaveguide.cli as cli

        tracer.install()
        for name in tracer.missing:
            print(f"traced_cli: {name} not found, not traced", file=sys.stderr)
        return cli.main(cli_args)
    finally:
        tracer.dump(stats_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
