"""Run a command and check that its peak resident set size stays under a bound.

    python scripts/peak_rss.py MAX_MB COMMAND [ARG ...]

Prints the command's peak RSS in MB to standard error.  Exits with the
command's status when that is nonzero, else 1 when the peak reached MAX_MB,
else 0.

The peak is ``ru_maxrss`` of the waited-for children (KiB on Linux).  It
also counts the image of this interpreter that the child was forked from,
so it never reads below this wrapper's own RSS: 13.6 MB for ``true`` on
CPython 3.11 (x86-64 Linux), the floor under every bound given to it.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.exit(__doc__)
    limit = float(argv[0])
    code = subprocess.call(argv[1:])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB (bound {limit:g} MB)", file=sys.stderr)
    if code:
        return code
    return 0 if peak < limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
