"""``python -m matconvex``: the command line of :mod:`matconvex.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
