"""Time one cold start of trackmpc: import it, parse a scenario, build its paths.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO_FILE [SECTION.KEY=VALUE ...]

Prints the seconds taken, scaled to the reference host speed by a speed
sample taken in this same process right after (see run.SpeedGauge).
perfbench/run.py starts it several times per run and reports the median as
setup_s.
"""

import sys
import time


def main(argv: list) -> None:
    src, scenario, *overrides = argv
    text = open(scenario).read()
    start = time.perf_counter()
    sys.path.insert(0, src)
    from trackmpc.config import apply_overrides, parse_config

    cfg = apply_overrides(parse_config(text), overrides)
    for variant in cfg.variants:
        cfg.build_path(cfg.controller_config(variant).ts)
    elapsed = time.perf_counter() - start

    from run import SpeedGauge

    print(repr(elapsed * SpeedGauge().sample()))


if __name__ == "__main__":
    main(sys.argv[1:])
