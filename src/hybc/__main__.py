"""The hybc program: the installed `hybc` script and `python -m hybc` both run
`run()`."""

import gc

from .cli import main


def run() -> None:
    """Freeze what importing the CLI built (about 15,600 objects on CPython
    3.11, alive until exit), so neither the command's collections nor the
    full ones at shutdown walk it again; then run the command. Objects the
    command creates are collected as before."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
