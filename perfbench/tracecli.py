"""The hodgescreen command line with spans installed.

    python3 -X importtime perfbench/tracecli.py <hodgescreen arguments>

Standard output and the exit code are the command's own.  The span
summary goes to standard error as the last line, after the prefix
SPANS_PREFIX.
"""

import json
import sys

import spans

SPANS_PREFIX = "perfbench-spans "


def main() -> int:
    from hodgescreen import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(SPANS_PREFIX + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
