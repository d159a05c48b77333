"""One fresh-interpreter session of fkdv commands.

Usage: python cli_session.py '<json list of argv lists>'

Runs each command through fkdv.cli.main in this one interpreter, stops at
the first non-zero exit code and exits with it. On success the last line of
standard output is time.perf_counter() after the last command: the parent
times the session from spawning it to that moment, so interpreter start-up
and `import fkdv` are included.
"""

import json
import sys
import time

from fkdv.cli import main

if __name__ == "__main__":
    for argv in json.loads(sys.argv[1]):
        code = main(argv)
        if code:
            sys.exit(code)
    print(time.perf_counter())
