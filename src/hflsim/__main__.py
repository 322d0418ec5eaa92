"""The `hflsim` command: `python -m hflsim` and the installed `hflsim`
script both call main().

main() first moves every object that exists after the imports (some 22k,
mostly numpy's) into the collector's permanent generation with
gc.freeze(), so no full collection walks them again, the one at
interpreter exit included (about 8 ms). Callers of cli.main, such as the
tests, run unfrozen.
"""

import gc
import sys

from . import cli


def main():
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
