"""Run one geosplit CLI command with the host's speed sampled inside it.

    python3 perfbench/timed_cli.py TIMING_JSON CLI_ARGS...

Does what `python -m geosplit.cli CLI_ARGS...` does: imports geosplit.cli
and runs its main.  A hostspeed.Sampler runs from before the import to the
end, and geosplit's process pools are hostspeed.SampledPools.  Writes
{"window": raw seconds, "nominal": nominal seconds} of that stretch to
TIMING_JSON.  The exit code and stdout are the CLI's own.
"""

import json
import sys

import hostspeed

SAMPLE_PERIOD_S = 0.1


def main():
    timing_file, argv = sys.argv[1], sys.argv[2:]
    sampler = hostspeed.Sampler(SAMPLE_PERIOD_S)
    sampler.sample()
    start = hostspeed.clock()
    sampler.start()
    try:
        from geosplit import cli, geodesics

        geodesics.Pool = sampler.pool(geodesics.Pool)
        code = cli.main(argv)
    finally:
        sampler.stop()
        end = hostspeed.clock()
        sampler.sample()
        with open(timing_file, "w") as fh:
            json.dump({"window": end - start, "nominal": sampler.normalised(start, end)}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
