"""Run one ``mixprec`` command with host-speed probes.

Usage: python perfbench/probed_cli.py PROBES.json COMMAND [ARGS...]

Behaves like ``python -m mixprec COMMAND [ARGS...]`` and additionally
writes the durations and speeds of the probes taken while it ran (see
hostspeed.py) to PROBES.json.  The probes start before the command's
imports, so these are probed too.  run.py times every untraced CLI step
through it.
"""

import json
import sys

import hostspeed


def main(argv) -> int:
    probes_path, command = argv[0], argv[1:]
    probe = hostspeed.Probe()
    probe.start()
    try:
        import mixprec.cli

        hostspeed.use_numpy()
        return mixprec.cli.main(command)
    finally:
        probe.stop()
        with open(probes_path, "w", encoding="utf-8") as fh:
            json.dump({"durations": probe.durations, "speeds": probe.speeds}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
