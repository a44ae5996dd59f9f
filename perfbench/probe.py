"""Time tbsim's set-up in this fresh interpreter and print it in seconds.

Set-up is importing ``tbsim.cli`` and all it imports, parsing the command
line and resolving the config file.  Nothing of numpy, scipy or tbsim is
imported before the timer starts.

    python3 perfbench/probe.py <src dir> <tbsim argv...>
"""

import sys
import time


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import tbsim.cli
    from tbsim.config import require_clean, resolve

    args = tbsim.cli.build_parser().parse_args(argv[1:])
    with open(args.config) as fh:
        require_clean(resolve(fh.read(), args.command))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
