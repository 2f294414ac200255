"""Time fracwave's set-up in a fresh interpreter.

    python3 benchmarks/setup_probe.py CONFIG.json [CONFIG.json ...]

Measures, from before ``import fracwave`` to the end: import, config
validation, building the initial data and resolving dt, for every config
given.  Prints ``{"setup_s": ...}``.  Uses only public names.
"""

import json
import sys
import time


def main(paths) -> int:
    t0 = time.perf_counter()
    import fracwave  # noqa: F401  (the import is part of what is timed)
    from fracwave.config import build_initial, validate_config
    from fracwave.timestepper import resolve_dt

    for path in paths:
        with open(path) as fh:
            cfg = validate_config(json.load(fh))
        u0 = build_initial(cfg.initial, cfg.grid)
        resolve_dt(u0, cfg.model, cfg.solver, cfg.solver.t_end)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
