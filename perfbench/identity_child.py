"""Run `dyckflip` in this fresh interpreter and report where its time went.

Usage: python3 identity_child.py <dyckflip arguments...>

The command's own output goes to stdout unchanged. The last line on stderr
is JSON with the perf_counter_ns marks of the import of dyckflip.cli and of
the call to main, which the benchmark turns into spans.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    from dyckflip import cli

    t1 = time.perf_counter_ns()
    code = cli.main(sys.argv[1:])
    t2 = time.perf_counter_ns()
    sys.stdout.flush()
    print(json.dumps({"import": [t0, t1], "main": [t1, t2]}), file=sys.stderr)
    sys.exit(code)
